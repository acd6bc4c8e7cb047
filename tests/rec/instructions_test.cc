/**
 * @file
 * SLAUNCH / SYIELD / SFREE / SKILL tests (paper Sections 5.1-5.6),
 * including the security invariants the hardware must enforce.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "rec/instructions.hh"
#include "sea/pal.hh"

namespace mintcb::rec
{
namespace
{

using machine::Machine;
using machine::PageState;
using machine::PlatformId;

class InstructionsTest : public ::testing::Test
{
  protected:
    InstructionsTest()
        : machine_(Machine::forPlatform(PlatformId::recTestbed)),
          exec_(machine_, /*sepcr_count=*/4)
    {
    }

    Secb
    makeSecb(const std::string &name, PhysAddr base = 0x40000,
             std::size_t code_bytes = 4096)
    {
        const sea::Pal pal = sea::Pal::fromLogic(
            name, code_bytes, [](sea::PalContext &) { return okStatus(); });
        auto secb = allocateSecb(machine_, pal, base, /*data_pages=*/1,
                                 Duration::millis(1));
        EXPECT_TRUE(secb.ok());
        return secb.take();
    }

    Machine machine_;
    SecureExecutive exec_;
};

TEST_F(InstructionsTest, FirstLaunchMeasuresAndProtects)
{
    Secb secb = makeSecb("pal-1");
    auto report = exec_.slaunch(1, secb);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->firstLaunch);
    EXPECT_TRUE(secb.measuredFlag);
    ASSERT_TRUE(secb.sePcr.has_value());
    EXPECT_EQ(secb.state, PalState::execute);
    EXPECT_EQ(*secb.runningOn, 1u);

    // Pages owned by CPU 1, unreachable to CPU 0 and to DMA.
    for (PageNum p : secb.pages)
        EXPECT_EQ(machine_.memctrl().pageState(p), PageState::owned);
    EXPECT_FALSE(machine_.readAs(0, secb.base, 8).ok());
    EXPECT_TRUE(machine_.readAs(1, secb.base, 8).ok());
    EXPECT_FALSE(machine_.nic().dmaRead(secb.base, 8).ok());

    // Interrupts are disabled on the PAL's core.
    EXPECT_FALSE(machine_.cpu(1).interruptsEnabled());
    // Stack pointer initialized to the top of the allocated region.
    EXPECT_EQ(secb.saved.stackPointer,
              pageBase(secb.pages.back()) + pageSize);
}

TEST_F(InstructionsTest, FirstLaunchCostsMeasurementResumeCostsVmEntry)
{
    Secb secb = makeSecb("pal-timing");
    auto first = exec_.slaunch(1, secb);
    ASSERT_TRUE(first.ok());
    // 4 KB measurement through a Broadcom TPM: ~12 ms.
    EXPECT_GT(first->total, Duration::millis(5));

    ASSERT_TRUE(exec_.syield(secb).ok());
    auto resume = exec_.slaunch(1, secb);
    ASSERT_TRUE(resume.ok());
    EXPECT_FALSE(resume->firstLaunch);
    // Section 5.7: resume is a VM-entry-class switch, ~0.56 us on AMD.
    EXPECT_LT(resume->total, Duration::micros(1));
    EXPECT_GT(resume->total, Duration::micros(0.3));
}

TEST_F(InstructionsTest, SyieldHidesPagesFromEveryone)
{
    Secb secb = makeSecb("pal-2");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    ASSERT_TRUE(machine_.writeAs(1, secb.base + 4096, {0x5e}).ok());
    ASSERT_TRUE(exec_.syield(secb).ok());

    EXPECT_EQ(secb.state, PalState::suspend);
    for (PageNum p : secb.pages)
        EXPECT_EQ(machine_.memctrl().pageState(p), PageState::none);
    // NONE: not even the CPU that ran the PAL can read them.
    for (CpuId c = 0; c < machine_.cpuCount(); ++c)
        EXPECT_FALSE(machine_.readAs(c, secb.base, 8).ok()) << c;
    EXPECT_FALSE(machine_.nic().dmaRead(secb.base, 8).ok());
    // Microarchitectural state was cleared on the way out.
    EXPECT_EQ(machine_.cpu(1).secureClears(), 1u);
}

TEST_F(InstructionsTest, ResumeOnDifferentCpu)
{
    Secb secb = makeSecb("migrating-pal");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    ASSERT_TRUE(machine_.writeAs(1, secb.base + 4096, {0x77}).ok());
    ASSERT_TRUE(exec_.syield(secb).ok());

    // "The PAL may execute on a different CPU each time it is resumed."
    auto resume = exec_.slaunch(3, secb);
    ASSERT_TRUE(resume.ok());
    EXPECT_EQ(*secb.runningOn, 3u);
    // Its data survived the migration and is visible to the new core.
    EXPECT_EQ(*machine_.readAs(3, secb.base + 4096, 1), Bytes{0x77});
    EXPECT_FALSE(machine_.readAs(1, secb.base + 4096, 1).ok());
}

TEST_F(InstructionsTest, DoubleLaunchFails)
{
    Secb secb = makeSecb("pal-3");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    auto second = exec_.slaunch(2, secb);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, Errc::failedPrecondition);
}

TEST_F(InstructionsTest, OverlappingPagesFailAtomically)
{
    Secb a = makeSecb("pal-a", 0x40000);
    Secb b = makeSecb("pal-b", 0x40000); // same region
    ASSERT_TRUE(exec_.slaunch(1, a).ok());
    auto launch_b = exec_.slaunch(2, b);
    ASSERT_FALSE(launch_b.ok());
    EXPECT_EQ(launch_b.error().code, Errc::permissionDenied);
    EXPECT_EQ(b.state, PalState::start);
    EXPECT_FALSE(b.measuredFlag);
}

TEST_F(InstructionsTest, MeasuredFlagForgeryForcesRemeasurement)
{
    // Attack from Section 5.3.1: the OS sets MF=1 on a fresh SECB hoping
    // to run unmeasured code. Pages are in ALL (not NONE), so hardware
    // measures anyway.
    Secb secb = makeSecb("forged-mf");
    secb.measuredFlag = true;
    secb.state = PalState::suspend; // forged bookkeeping
    secb.saved.valid = true;
    auto report = exec_.slaunch(1, secb);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->firstLaunch); // re-measured despite MF=1
    ASSERT_TRUE(secb.sePcr.has_value());
}

TEST_F(InstructionsTest, SfreeReleasesEverythingAndMovesSePcrToQuote)
{
    Secb secb = makeSecb("clean-exit");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    const SePcrHandle h = *secb.sePcr;
    ASSERT_TRUE(exec_.sfree(secb, /*from_pal=*/true).ok());

    EXPECT_EQ(secb.state, PalState::done);
    for (PageNum p : secb.pages)
        EXPECT_EQ(machine_.memctrl().pageState(p), PageState::all);
    EXPECT_EQ(exec_.sePcrs().state(h), SePcrState::quote);
    EXPECT_TRUE(machine_.cpu(1).interruptsEnabled());

    // Untrusted code can now quote and then free the sePCR.
    auto q = exec_.sePcrs().quote(h, asciiBytes("nonce"));
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(exec_.sePcrs().release(h).ok());
}

TEST_F(InstructionsTest, SfreeFromOutsideThePalFails)
{
    Secb secb = makeSecb("attacked");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    auto s = exec_.sfree(secb, /*from_pal=*/false);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::permissionDenied);
    EXPECT_EQ(secb.state, PalState::execute); // unchanged
}

TEST_F(InstructionsTest, SkillErasesSecretsBeforeReleasingPages)
{
    Secb secb = makeSecb("killed");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    // PAL writes a secret into its data page.
    const PhysAddr secret_addr = pageBase(secb.pages.back());
    ASSERT_TRUE(machine_.writeAs(1, secret_addr,
                                 asciiBytes("private key")).ok());
    ASSERT_TRUE(exec_.syield(secb).ok());

    const SePcrHandle h = *secb.sePcr;
    ASSERT_TRUE(exec_.skill(secb).ok());
    EXPECT_EQ(secb.state, PalState::done);
    EXPECT_EQ(exec_.sePcrs().state(h), SePcrState::free);

    // Pages are public again, but hold only zeros -- the secret is gone.
    auto leaked = machine_.nic().dmaRead(secret_addr, 11);
    ASSERT_TRUE(leaked.ok());
    EXPECT_EQ(*leaked, Bytes(11, 0x00));
}

TEST_F(InstructionsTest, SkillLeavesNoStoredPage)
{
    ASSERT_EQ(machine_.memory().residentPages(), 0u);
    Secb secb = makeSecb("killed-sparse");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    ASSERT_TRUE(machine_.writeAs(1, pageBase(secb.pages.back()),
                                 asciiBytes("private key")).ok());
    ASSERT_TRUE(exec_.syield(secb).ok());
    ASSERT_GT(machine_.memory().residentPages(), 0u);

    ASSERT_TRUE(exec_.skill(secb).ok());
    for (PageNum p : secb.pages) {
        auto page = machine_.nic().dmaRead(pageBase(p), pageSize);
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(*page, Bytes(pageSize, 0x00)) << "page " << p;
    }
    EXPECT_EQ(machine_.memory().residentPages(), 0u);
}

TEST_F(InstructionsTest, SkillFailsClosedWhenAPageCannotBeErased)
{
    Secb secb = makeSecb("unerasable");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    const PhysAddr secret_addr = pageBase(secb.pages.back());
    ASSERT_TRUE(machine_.writeAs(1, secret_addr,
                                 asciiBytes("private key")).ok());
    ASSERT_TRUE(exec_.syield(secb).ok());
    const std::vector<PageNum> real_pages = secb.pages;
    const SePcrHandle h = *secb.sePcr;

    // A corrupted SECB naming a page past the end of RAM.
    secb.pages.push_back(machine_.memory().pages());
    auto s = exec_.skill(secb);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, Errc::invalidArgument);

    // Nothing was released: the real pages stay hidden from every
    // agent, and the PAL keeps its state and its sePCR binding.
    EXPECT_EQ(secb.state, PalState::suspend);
    EXPECT_EQ(exec_.sePcrs().state(h), SePcrState::exclusive);
    for (PageNum p : real_pages)
        EXPECT_EQ(machine_.memctrl().pageState(p), PageState::none);
    EXPECT_FALSE(machine_.nic().dmaRead(secret_addr, 11).ok());
}

TEST_F(InstructionsTest, SkillRequiresSuspendedPal)
{
    Secb secb = makeSecb("running");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    EXPECT_FALSE(exec_.skill(secb).ok()); // executing, not suspended
    ASSERT_TRUE(exec_.sfree(secb, true).ok());
    EXPECT_FALSE(exec_.skill(secb).ok()); // done
}

TEST_F(InstructionsTest, SyieldOutsideExecutionFails)
{
    Secb secb = makeSecb("never-launched");
    EXPECT_FALSE(exec_.syield(secb).ok());
}

TEST_F(InstructionsTest, SePcrExhaustionFailsSlaunchCleanly)
{
    std::vector<Secb> secbs;
    for (int i = 0; i < 4; ++i) {
        secbs.push_back(makeSecb("pal-" + std::to_string(i),
                                 0x40000 + i * 0x10000));
        ASSERT_TRUE(exec_.slaunch(1 + (i % 3), secbs.back()).ok()) << i;
        ASSERT_TRUE(exec_.syield(secbs.back()).ok());
    }
    // A fifth PAL finds no free sePCR; its pages must be released again.
    Secb fifth = makeSecb("pal-5", 0x100000);
    auto launch = exec_.slaunch(1, fifth);
    ASSERT_FALSE(launch.ok());
    EXPECT_EQ(launch.error().code, Errc::resourceExhausted);
    for (PageNum p : fifth.pages)
        EXPECT_EQ(machine_.memctrl().pageState(p), PageState::all);
}

TEST_F(InstructionsTest, ConcurrentPalsAndLegacyCoexist)
{
    // The Figure 4 picture: two PALs on cores 1-2, legacy work on 0 and
    // 3, nothing halts.
    Secb a = makeSecb("pal-a", 0x40000);
    Secb b = makeSecb("pal-b", 0x60000);
    ASSERT_TRUE(exec_.slaunch(1, a).ok());
    ASSERT_TRUE(exec_.slaunch(2, b).ok());

    const std::uint64_t w0 =
        machine_.cpu(0).runLegacyWork(Duration::millis(10));
    const std::uint64_t w3 =
        machine_.cpu(3).runLegacyWork(Duration::millis(10));
    EXPECT_GT(w0, 0u);
    EXPECT_GT(w3, 0u);

    // Mutually untrusting: neither PAL can read the other's pages.
    EXPECT_FALSE(machine_.readAs(1, b.base, 8).ok());
    EXPECT_FALSE(machine_.readAs(2, a.base, 8).ok());

    ASSERT_TRUE(exec_.sfree(a, true).ok());
    ASSERT_TRUE(exec_.sfree(b, true).ok());
}

// ---- Section 6: multicore join ---------------------------------------------

TEST_F(InstructionsTest, JoinAddsCoOwnerCpu)
{
    Secb secb = makeSecb("multicore-pal");
    ASSERT_TRUE(exec_.slaunch(1, secb).ok());
    ASSERT_TRUE(exec_.join(2, secb).ok());

    EXPECT_TRUE(machine_.readAs(1, secb.base, 8).ok());
    EXPECT_TRUE(machine_.readAs(2, secb.base, 8).ok());
    EXPECT_FALSE(machine_.readAs(3, secb.base, 8).ok());
    EXPECT_EQ(machine_.memctrl().pageOwnerMask(secb.pages[0]),
              (1ull << 1) | (1ull << 2));
}

TEST_F(InstructionsTest, JoinRequiresExecutingPal)
{
    Secb secb = makeSecb("not-running");
    EXPECT_FALSE(exec_.join(2, secb).ok());
}

} // namespace
} // namespace mintcb::rec
