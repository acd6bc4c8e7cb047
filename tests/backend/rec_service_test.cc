/**
 * @file
 * The rec-service engine, ExecutionService::runCampaign, through every
 * path that runs it.
 *
 * RecServiceBytes pins the report bytes: the bench_backend_matrix
 * workload (1 KiB input, 5 ms compute, 4 data pages, quoted) runs
 * through the registry backend, an inline service drain, and a
 * two-worker sharded drain, and each path's SHA-256 of
 * ExecutionReport::encode() must equal the digest pinned below. The
 * digests hold every simulated timestamp, phase, section and quote
 * byte, so a change to the campaign engine that moves any of them
 * fails here, in tier 1, rather than in the +-15% bench gate.
 *
 * OneShotTest runs one-request campaigns -- the shape the rec-service
 * backend runs -- on a persistent executive and checks the Section 5.6
 * life cycle around the body: memory erased and its storage dropped
 * after SFREE, a failing body leaving no resource held, the quote
 * optional, and sealed state bound to the PAL's identity.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/registry.hh"
#include "common/hex.hh"
#include "crypto/sha1.hh"
#include "crypto/sha256.hh"
#include "sea/service.hh"

namespace mintcb::backend
{
namespace
{

using machine::Machine;
using machine::PlatformId;

constexpr Duration palCompute = Duration::millis(5);
constexpr std::uint64_t seed = 42;

/** bench_backend_matrix's workload, quote requested. */
sea::PalRequest
matrixRequest()
{
    Bytes input(1024);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<std::uint8_t>(i * 37 + 11);
    sea::PalRequest req(
        sea::Pal::fromLogic("matrix-workload", 4 * 1024,
                            [](sea::PalContext &ctx) {
                                ctx.compute(palCompute);
                                ctx.setOutput(ctx.input());
                                return okStatus();
                            }),
        std::move(input));
    req.backend = defaultBackendName;
    req.dataPages = 4;
    req.slicedCompute = palCompute;
    req.secureBody = [](rec::PalHooks &,
                        const Bytes &in) -> Result<Bytes> { return in; };
    req.wantQuote = true;
    return req;
}

std::string
digestOf(const sea::ExecutionReport &report)
{
    EXPECT_TRUE(report.status.ok()) << report.status.error().str();
    EXPECT_TRUE(report.quoted);
    return toHex(crypto::Sha256::digestBytes(report.encode()));
}

std::string
serviceDigest(std::uint32_t workers)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed, seed);
    sea::ServiceConfig config;
    config.workers = workers;
    sea::ExecutionService svc(m, config);
    auto report = svc.runOne(matrixRequest());
    EXPECT_TRUE(report.ok());
    return report.ok() ? digestOf(*report) : std::string();
}

TEST(RecServiceBytes, BackendRunMatchesPinnedDigest)
{
    const Backend *b =
        BackendRegistry::standard().find(defaultBackendName);
    ASSERT_NE(b, nullptr);
    Machine m = Machine::forPlatform(PlatformId::recTestbed, seed);
    auto report = b->run(m, matrixRequest(), /*cpu=*/1);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(digestOf(*report),
              "ad8bb27a2ef7c60585d6c342c3b35bbb"
              "c5f294cf537cc4a14b79cb1bfae1cf09");
}

TEST(RecServiceBytes, InlineDrainMatchesPinnedDigest)
{
    EXPECT_EQ(serviceDigest(0),
              "40451b294415a8121f38a4e0756fbdac"
              "514c37f82065ca8fc461c802c65e592c");
}

TEST(RecServiceBytes, ShardedDrainMatchesPinnedDigest)
{
    EXPECT_EQ(serviceDigest(2),
              "ee8ed604ec9c01a613618cb4bd10b1bf"
              "e8fc972d1c9314dc2e68230ce60320f6");
}

sea::Pal
oneShotPal(const std::string &name)
{
    return sea::Pal::fromLogic(name, 4096,
                               [](sea::PalContext &) { return okStatus(); });
}

class OneShotTest : public ::testing::Test
{
  protected:
    OneShotTest()
        : machine_(Machine::forPlatform(PlatformId::recTestbed)),
          exec_(machine_, 4)
    {
    }

    /** Run @p body as PAL @p name on @p input in a one-request
     *  campaign. */
    Result<sea::ExecutionReport>
    runOnce(const std::string &name, sea::SecureBody body,
            bool want_quote = true, Bytes input = {})
    {
        sea::PalRequest req(oneShotPal(name), std::move(input));
        req.secureBody = std::move(body);
        req.wantQuote = want_quote;
        const sea::ExecutionService::Pending pending{std::move(req), 0,
                                                     machine_.now()};
        auto campaign = sea::ExecutionService::runCampaign(
            exec_, sea::ServiceConfig{}, {&pending}, 0);
        if (!campaign)
            return campaign.error();
        return std::move(campaign->reports.front());
    }

    Machine machine_;
    rec::SecureExecutive exec_;
};

TEST_F(OneShotTest, RunsAndReturnsOutput)
{
    auto report = runOnce("oneshot-hello",
                          [](rec::PalHooks &hooks,
                             const Bytes &) -> Result<Bytes> {
                              hooks.compute(Duration::micros(50));
                              return asciiBytes("secure result");
                          });
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->status.ok()) << report->status.error().str();
    EXPECT_EQ(report->output, asciiBytes("secure result"));
    EXPECT_EQ(report->palMeasurement,
              oneShotPal("oneshot-hello").measurement());
    EXPECT_GE(report->launches, 1u);
    EXPECT_TRUE(report->quoted);
}

TEST_F(OneShotTest, SfreeLeavesNoStoredPage)
{
    ASSERT_EQ(machine_.memory().residentPages(), 0u);
    std::vector<PageNum> pages;
    auto report = runOnce(
        "oneshot-sparse",
        [&](rec::PalHooks &hooks, const Bytes &) -> Result<Bytes> {
            pages = hooks.secb().pages;
            if (auto s = machine_.writeAs(hooks.cpu(),
                                          pageBase(pages.back()),
                                          asciiBytes("scratch secret"));
                !s.ok()) {
                return s.error();
            }
            return Bytes{};
        });
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->status.ok()) << report->status.error().str();
    ASSERT_FALSE(pages.empty());

    // The PAL's own erase before SFREE dropped every page's storage.
    for (PageNum p : pages) {
        auto page = machine_.nic().dmaRead(pageBase(p), pageSize);
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(*page, Bytes(pageSize, 0x00)) << "page " << p;
    }
    EXPECT_EQ(machine_.memory().residentPages(), 0u);
}

/** PCR extend: SHA-1(@p pcr || @p digest). */
Bytes
extended(Bytes pcr, const Bytes &digest)
{
    pcr.insert(pcr.end(), digest.begin(), digest.end());
    return crypto::Sha1::digestBytes(pcr);
}

TEST_F(OneShotTest, QuoteVerifiesAgainstTheNamedIdentity)
{
    const Bytes input = asciiBytes("request");
    auto report = runOnce("oneshot-attested",
                          [](rec::PalHooks &,
                             const Bytes &) -> Result<Bytes> {
                              return asciiBytes("answer");
                          },
                          /*want_quote=*/true, input);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->quoted);

    // The AIK signed the quote, and the quoted sePCR is the named PAL's
    // launch identity followed by the campaign's input and output
    // digests.
    const tpm::TpmQuote &quote = report->quote;
    ASSERT_TRUE(tpm::verifyQuote(machine_.tpm().aikPublic(), quote,
                                 quote.nonce)
                    .ok());
    ASSERT_EQ(quote.values.size(), 1u);
    const Bytes identity = crypto::Sha1::digestBytes(
        oneShotPal("oneshot-attested").slbImage());
    EXPECT_EQ(report->palMeasurement, identity);
    Bytes chain = extended(Bytes(crypto::sha1DigestSize, 0x00), identity);
    chain = extended(chain, crypto::Sha1::digestBytes(input));
    chain = extended(chain, crypto::Sha1::digestBytes(report->output));
    EXPECT_EQ(quote.values.front(), chain);
}

TEST_F(OneShotTest, SealedStateSurvivesBetweenOneShots)
{
    tpm::SealedBlob saved;
    auto first = runOnce("oneshot-stateful",
                         [&saved](rec::PalHooks &hooks,
                                  const Bytes &) -> Result<Bytes> {
                             auto blob = hooks.seal(asciiBytes("counter=1"));
                             if (!blob)
                                 return blob.error();
                             saved = blob.take();
                             return Bytes{};
                         });
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->status.ok()) << first->status.error().str();

    auto second = runOnce("oneshot-stateful",
                          [&saved](rec::PalHooks &hooks,
                                   const Bytes &) -> Result<Bytes> {
                              return hooks.unseal(saved);
                          });
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second->status.ok()) << second->status.error().str();
    EXPECT_EQ(second->output, asciiBytes("counter=1"));
}

TEST_F(OneShotTest, DifferentIdentityCannotUnseal)
{
    tpm::SealedBlob saved;
    auto owner = runOnce("oneshot-owner",
                         [&saved](rec::PalHooks &hooks,
                                  const Bytes &) -> Result<Bytes> {
                             auto blob = hooks.seal(asciiBytes("mine"));
                             if (!blob)
                                 return blob.error();
                             saved = blob.take();
                             return Bytes{};
                         });
    ASSERT_TRUE(owner.ok());
    ASSERT_TRUE(owner->status.ok()) << owner->status.error().str();

    auto thief = runOnce("oneshot-thief",
                         [&saved](rec::PalHooks &hooks,
                                  const Bytes &) -> Result<Bytes> {
                             return hooks.unseal(saved);
                         });
    ASSERT_TRUE(thief.ok());
    ASSERT_FALSE(thief->status.ok());
    EXPECT_EQ(thief->status.error().code, Errc::permissionDenied);
}

TEST_F(OneShotTest, FailureCleansUpCompletely)
{
    auto failing = runOnce("oneshot-failing",
                           [](rec::PalHooks &,
                              const Bytes &) -> Result<Bytes> {
                               return Error(Errc::integrityFailure,
                                            "bad input");
                           });
    ASSERT_TRUE(failing.ok());
    ASSERT_FALSE(failing->status.ok());
    EXPECT_EQ(failing->status.error().code, Errc::integrityFailure);
    // Resources returned: pages ALL, sePCRs free, TPM unlocked.
    for (PageNum p = 0; p < machine_.memctrl().pages(); ++p)
        EXPECT_EQ(machine_.memctrl().pageState(p),
                  machine::PageState::all);
    EXPECT_EQ(exec_.sePcrs().freeCount(), 4u);
    EXPECT_FALSE(machine_.tpm().lockHolder().has_value());
    // And a following campaign still runs.
    auto after = runOnce("oneshot-after",
                         [](rec::PalHooks &,
                            const Bytes &) -> Result<Bytes> {
                             return Bytes{};
                         });
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->status.ok()) << after->status.error().str();
}

TEST_F(OneShotTest, MemoryIsErasedAfterTheRun)
{
    PhysAddr secret_at = 0;
    auto report = runOnce(
        "oneshot-secretive",
        [&](rec::PalHooks &hooks, const Bytes &) -> Result<Bytes> {
            // Write a secret into the last data page.
            secret_at = pageBase(hooks.secb().pages.back()) + 128;
            if (auto s = machine_.writeAs(hooks.cpu(), secret_at,
                                          asciiBytes("top secret"));
                !s.ok()) {
                return s.error();
            }
            return Bytes{};
        });
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->status.ok()) << report->status.error().str();
    // After the run the page is public again and zeroed.
    EXPECT_EQ(machine_.memctrl().pageState(pageOf(secret_at)),
              machine::PageState::all);
    auto leaked = machine_.nic().dmaRead(secret_at, 64);
    ASSERT_TRUE(leaked.ok());
    EXPECT_EQ(*leaked, Bytes(64, 0x00));
}

TEST_F(OneShotTest, QuoteCanBeSkipped)
{
    auto report = runOnce("oneshot-quiet",
                          [](rec::PalHooks &,
                             const Bytes &) -> Result<Bytes> {
                              return Bytes{};
                          },
                          /*want_quote=*/false);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->status.ok()) << report->status.error().str();
    EXPECT_FALSE(report->quoted);
    EXPECT_EQ(exec_.sePcrs().freeCount(), 4u); // still released
}

} // namespace
} // namespace mintcb::backend
