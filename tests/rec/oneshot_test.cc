/**
 * @file
 * One-shot secure-execution API tests.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "rec/oneshot.hh"
#include "rec/verifier.hh"
#include "sea/pal.hh"

namespace mintcb::rec
{
namespace
{

using machine::Machine;
using machine::PlatformId;

class OneShotTest : public ::testing::Test
{
  protected:
    OneShotTest()
        : machine_(Machine::forPlatform(PlatformId::recTestbed)),
          exec_(machine_, 4)
    {
    }

    Machine machine_;
    SecureExecutive exec_;
};

TEST_F(OneShotTest, RunsAndReturnsOutput)
{
    auto report = runOneShot(exec_, "oneshot-hello",
                             [](PalHooks &hooks) -> Result<Bytes> {
                                 hooks.compute(Duration::micros(50));
                                 return asciiBytes("secure result");
                             });
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->output, asciiBytes("secure result"));
    EXPECT_GT(report->measurement, Duration::zero());
    EXPECT_TRUE(report->quoted);
}

TEST_F(OneShotTest, SfreeLeavesNoStoredPage)
{
    ASSERT_EQ(machine_.memory().residentPages(), 0u);
    std::vector<PageNum> pages;
    auto report = runOneShot(
        exec_, "oneshot-sparse", [&](PalHooks &hooks) -> Result<Bytes> {
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
    ASSERT_FALSE(pages.empty());

    // The PAL's own erase before SFREE dropped every page's storage.
    for (PageNum p : pages) {
        auto page = machine_.nic().dmaRead(pageBase(p), pageSize);
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(*page, Bytes(pageSize, 0x00)) << "page " << p;
    }
    EXPECT_EQ(machine_.memory().residentPages(), 0u);
}

TEST_F(OneShotTest, QuoteVerifiesAgainstTheNamedIdentity)
{
    auto report = runOneShot(exec_, "oneshot-attested",
                             [](PalHooks &) -> Result<Bytes> {
                                 return Bytes{};
                             });
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->quoted);

    SeVerifier verifier;
    const sea::Pal expected = sea::Pal::fromLogic(
        "oneshot-attested", 4096,
        [](sea::PalContext &) { return okStatus(); });
    verifier.trustPalImage("oneshot-attested", expected.slbImage());
    auto verdict = verifier.verify(report->quote, machine_.tpm().aikPublic(),
                                   report->quote.nonce);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict->palName, "oneshot-attested");
}

TEST_F(OneShotTest, SealedStateSurvivesBetweenOneShots)
{
    tpm::SealedBlob saved;
    auto first = runOneShot(
        exec_, "oneshot-stateful",
        [&saved](PalHooks &hooks) -> Result<Bytes> {
            auto blob = hooks.seal(asciiBytes("counter=1"));
            if (!blob)
                return blob.error();
            saved = blob.take();
            return Bytes{};
        });
    ASSERT_TRUE(first.ok());

    auto second = runOneShot(
        exec_, "oneshot-stateful",
        [&saved](PalHooks &hooks) -> Result<Bytes> {
            return hooks.unseal(saved);
        });
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->output, asciiBytes("counter=1"));
}

TEST_F(OneShotTest, DifferentIdentityCannotUnseal)
{
    tpm::SealedBlob saved;
    ASSERT_TRUE(runOneShot(exec_, "oneshot-owner",
                           [&saved](PalHooks &hooks) -> Result<Bytes> {
                               auto blob = hooks.seal(asciiBytes("mine"));
                               if (!blob)
                                   return blob.error();
                               saved = blob.take();
                               return Bytes{};
                           }).ok());
    auto thief = runOneShot(exec_, "oneshot-thief",
                            [&saved](PalHooks &hooks) -> Result<Bytes> {
                                return hooks.unseal(saved);
                            });
    ASSERT_FALSE(thief.ok());
    EXPECT_EQ(thief.error().code, Errc::permissionDenied);
}

TEST_F(OneShotTest, FailureCleansUpCompletely)
{
    auto failing = runOneShot(exec_, "oneshot-failing",
                              [](PalHooks &) -> Result<Bytes> {
                                  return Error(Errc::integrityFailure,
                                               "bad input");
                              });
    ASSERT_FALSE(failing.ok());
    // Resources returned: pages ALL, sePCRs free, TPM unlocked.
    for (PageNum p = 0; p < machine_.memctrl().pages(); ++p)
        EXPECT_EQ(machine_.memctrl().pageState(p),
                  machine::PageState::all);
    EXPECT_EQ(exec_.sePcrs().freeCount(), 4u);
    EXPECT_FALSE(machine_.tpm().lockHolder().has_value());
    // And a new one-shot still works.
    EXPECT_TRUE(runOneShot(exec_, "oneshot-after",
                           [](PalHooks &) -> Result<Bytes> {
                               return Bytes{};
                           }).ok());
}

TEST_F(OneShotTest, MemoryIsErasedAfterTheRun)
{
    const OneShotOptions options;
    auto report = runOneShot(
        exec_, "oneshot-secretive",
        [&](PalHooks &hooks) -> Result<Bytes> {
            // Write a secret into the data page.
            const PhysAddr addr =
                pageBase(pageOf(options.base)) +
                static_cast<PhysAddr>(options.codeBytes + 4096);
            return machine_.writeAs(hooks.cpu(), addr,
                                    asciiBytes("top secret")).ok()
                       ? Result<Bytes>(Bytes{})
                       : Result<Bytes>(Error(Errc::invalidArgument,
                                             "write failed"));
        },
        options);
    ASSERT_TRUE(report.ok());
    // After the run the pages are public again and zeroed.
    auto leaked = machine_.nic().dmaRead(options.base, 64);
    ASSERT_TRUE(leaked.ok());
    EXPECT_EQ(*leaked, Bytes(64, 0x00));
}

TEST_F(OneShotTest, QuoteCanBeSkipped)
{
    OneShotOptions options;
    options.quote = false;
    auto report = runOneShot(exec_, "oneshot-quiet",
                             [](PalHooks &) -> Result<Bytes> {
                                 return Bytes{};
                             },
                             options);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->quoted);
    EXPECT_EQ(exec_.sePcrs().freeCount(), 4u); // still released
}

} // namespace
} // namespace mintcb::rec
