/**
 * @file
 * Physical memory tests.
 */

#include <gtest/gtest.h>

#include "machine/memory.hh"

namespace mintcb::machine
{
namespace
{

TEST(PhysicalMemory, SizeAndZeroInit)
{
    PhysicalMemory mem(4);
    EXPECT_EQ(mem.pages(), 4u);
    EXPECT_EQ(mem.sizeBytes(), 4u * pageSize);
    auto r = mem.read(0, 16);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, Bytes(16, 0x00));
}

TEST(PhysicalMemory, WriteReadRoundTrip)
{
    PhysicalMemory mem(2);
    const Bytes data = {1, 2, 3, 4, 5};
    ASSERT_TRUE(mem.write(100, data).ok());
    EXPECT_EQ(*mem.read(100, 5), data);
}

TEST(PhysicalMemory, CrossPageWrite)
{
    PhysicalMemory mem(2);
    const Bytes data(100, 0xcd);
    ASSERT_TRUE(mem.write(pageSize - 50, data).ok());
    EXPECT_EQ(*mem.read(pageSize - 50, 100), data);
}

TEST(PhysicalMemory, OutOfRangeRejected)
{
    PhysicalMemory mem(1);
    EXPECT_FALSE(mem.read(pageSize - 1, 2).ok());
    EXPECT_FALSE(mem.write(pageSize, {1}).ok());
    EXPECT_FALSE(mem.read(1ull << 40, 1).ok());
    // Length overflow must not wrap.
    EXPECT_FALSE(mem.read(10, ~0ull).ok());
}

TEST(PhysicalMemory, BoundaryAccessesSucceed)
{
    PhysicalMemory mem(1);
    EXPECT_TRUE(mem.write(pageSize - 1, {0xff}).ok());
    EXPECT_TRUE(mem.read(0, pageSize).ok());
    EXPECT_TRUE(mem.read(pageSize, 0).ok());
}

TEST(PhysicalMemory, ZeroPageErases)
{
    PhysicalMemory mem(2);
    ASSERT_TRUE(mem.write(pageSize + 7, {9, 9, 9}).ok());
    ASSERT_TRUE(mem.zeroPage(1).ok());
    EXPECT_EQ(*mem.read(pageSize, pageSize), Bytes(pageSize, 0x00));
    EXPECT_FALSE(mem.zeroPage(2).ok());
}

TEST(PhysicalMemory, FreshMemoryHoldsNoPagesAndReadsZero)
{
    PhysicalMemory mem(8);
    EXPECT_EQ(mem.residentPages(), 0u);
    auto r = mem.read(0, mem.sizeBytes());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, Bytes(mem.sizeBytes(), 0x00));
    EXPECT_EQ(mem.residentPages(), 0u); // reads never store a page
}

TEST(PhysicalMemory, ReadSpansStoredAndUnstoredPages)
{
    PhysicalMemory mem(4);
    ASSERT_TRUE(mem.write(pageSize - 2, {1, 2}).ok());
    ASSERT_TRUE(mem.write(2 * pageSize, {3}).ok());
    EXPECT_EQ(mem.residentPages(), 2u);

    auto r = mem.read(pageSize - 4, pageSize + 6);
    ASSERT_TRUE(r.ok());
    Bytes expect(pageSize + 6, 0x00);
    expect[2] = 1;
    expect[3] = 2;
    expect[pageSize + 4] = 3;
    EXPECT_EQ(*r, expect);
}

TEST(PhysicalMemory, ZeroLengthAccessStoresNoPage)
{
    PhysicalMemory mem(2);
    ASSERT_TRUE(mem.write(100, {}).ok());
    ASSERT_TRUE(mem.write(2 * pageSize, {}).ok());
    auto r = mem.read(pageSize, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty());
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(PhysicalMemory, ZeroPageFreesStorageAndPageStaysWritable)
{
    PhysicalMemory mem(2);
    ASSERT_TRUE(mem.write(0, {5}).ok());
    ASSERT_TRUE(mem.write(pageSize, {6, 6}).ok());
    ASSERT_EQ(mem.residentPages(), 2u);

    ASSERT_TRUE(mem.zeroPage(1).ok());
    EXPECT_EQ(mem.residentPages(), 1u);
    EXPECT_EQ(*mem.read(pageSize, pageSize), Bytes(pageSize, 0x00));
    EXPECT_EQ(*mem.read(0, 1), Bytes{5}); // neighbour untouched

    // Erasing a page with no storage is a no-op, not an error.
    ASSERT_TRUE(mem.zeroPage(1).ok());
    EXPECT_EQ(mem.residentPages(), 1u);

    ASSERT_TRUE(mem.write(pageSize + 10, {7}).ok());
    EXPECT_EQ(mem.residentPages(), 2u);
    EXPECT_EQ(*mem.read(pageSize + 9, 3), (Bytes{0, 7, 0}));
}

TEST(PhysicalMemory, RejectedAccessStoresNoPage)
{
    PhysicalMemory mem(2);
    // Partly in range: nothing is written, not even the in-range part.
    EXPECT_FALSE(mem.write(2 * pageSize - 1, {1, 2}).ok());
    EXPECT_FALSE(mem.write(2 * pageSize, {1}).ok());
    EXPECT_FALSE(mem.read(0, ~0ull).ok());
    EXPECT_FALSE(mem.zeroPage(2).ok());
    EXPECT_EQ(mem.residentPages(), 0u);
    EXPECT_EQ(*mem.read(2 * pageSize - 1, 1), Bytes{0});
}

TEST(PhysicalMemory, PageHelpers)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(pageSize - 1), 0u);
    EXPECT_EQ(pageOf(pageSize), 1u);
    EXPECT_EQ(pageBase(3), 3 * pageSize);
    EXPECT_EQ(pagesFor(0), 0u);
    EXPECT_EQ(pagesFor(1), 1u);
    EXPECT_EQ(pagesFor(pageSize), 1u);
    EXPECT_EQ(pagesFor(pageSize + 1), 2u);
}

} // namespace
} // namespace mintcb::machine
