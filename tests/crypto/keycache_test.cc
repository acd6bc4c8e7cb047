/**
 * @file
 * Key-cache tests (determinism and the disk layer's fallback).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/keycache.hh"
#include "crypto/prime.hh"
#include "crypto/sha256.hh"

namespace mintcb::crypto
{
namespace
{

TEST(KeyCache, DistinctLabelsDistinctKeys)
{
    const RsaPrivateKey &a = cachedKey("kc-label-a", 512);
    const RsaPrivateKey &b = cachedKey("kc-label-b", 512);
    EXPECT_NE(a.pub.n, b.pub.n);
}

TEST(KeyCache, DistinctSizesDistinctKeys)
{
    const RsaPrivateKey &a = cachedKey("kc-sized", 512);
    const RsaPrivateKey &b = cachedKey("kc-sized", 768);
    EXPECT_EQ(a.pub.n.bitLength(), 512u);
    EXPECT_EQ(b.pub.n.bitLength(), 768u);
}

TEST(KeyCache, ReturnedKeysAreFunctional)
{
    const RsaPrivateKey &key = cachedKey("kc-functional", 512);
    const Bytes msg = {'k', 'c'};
    EXPECT_TRUE(rsaVerifySha1(key.pub, msg, rsaSignSha1(key, msg)));
}

TEST(KeyCache, InMemoryMemoizationReturnsSameObject)
{
    EXPECT_EQ(&cachedKey("kc-memo", 512), &cachedKey("kc-memo", 512));
}

TEST(KeyCache, KeysAreDeterministicAcrossTheDiskLayer)
{
    // Whether this process generated the key or loaded it from the disk
    // cache, the value is a pure function of (label, bits): regenerate
    // from the same derivation and compare.
    const RsaPrivateKey &cached = cachedKey("kc-deterministic", 512);
    // Derive the same seed the cache uses (mirrors keycache.cc).
    const Bytes digest =
        Sha256::digestBytes(Bytes{'k', 'c', '-', 'd', 'e', 't', 'e',
                                  'r', 'm', 'i', 'n', 'i', 's', 't',
                                  'i', 'c'});
    std::uint64_t seed = 512;
    for (int i = 0; i < 8; ++i)
        seed = (seed << 8) ^ digest[i] ^ (seed >> 56);
    Rng rng(seed);
    const RsaPrivateKey fresh = rsaGenerate(rng, 512);
    EXPECT_EQ(cached.pub.n, fresh.pub.n);
    EXPECT_EQ(cached.d, fresh.d);
}

TEST(KeyCache, ServedKeysCarryCrtParameters)
{
    // Every key the cache hands out must take rsaPrivateOp's fast
    // path, whether it was generated this process or loaded from disk.
    EXPECT_TRUE(cachedKey("kc-crt-served", 512).hasCrt());
}

TEST(KeyCache, MemoizedHitNeverRegeneratesPrimes)
{
    (void)cachedKey("kc-hit-count", 512); // generate or load once
    const std::uint64_t before = primeGenerationCount();
    (void)cachedKey("kc-hit-count", 512);
    EXPECT_EQ(primeGenerationCount(), before);
}

/** Mirror of keycache.cc's on-disk path derivation. */
std::string
diskPathFor(const std::string &label, std::size_t bits)
{
    const char *tmp = std::getenv("TMPDIR");
    const std::string dir = tmp ? tmp : "/tmp";
    const Bytes digest =
        Sha256::digestBytes(asciiBytes(label + ":" +
                                       std::to_string(bits)));
    return dir + "/mintcb-key-" +
           toHex(Bytes(digest.begin(), digest.begin() + 16)) + ".bin";
}

/** The key cachedKey derives for (@p label, @p bits) (mirrors
 *  keycache.cc's seed derivation). */
RsaPrivateKey
deterministicKey(const std::string &label, std::size_t bits)
{
    const Bytes digest = Sha256::digestBytes(asciiBytes(label));
    std::uint64_t seed = static_cast<std::uint64_t>(bits);
    for (int i = 0; i < 8; ++i)
        seed = (seed << 8) ^ digest[i] ^ (seed >> 56);
    Rng rng(seed);
    return rsaGenerate(rng, bits);
}

TEST(KeyCache, CrtlessDiskEntryIsRegenerated)
{
    // Plant a CRT-less cache file (eight-field layout, dP/dQ/qInv
    // zeroed) under a label this process has not touched. The cache
    // must not serve it on the slow path: it discards the file,
    // regenerates the same deterministic key, and re-stores it in the
    // full layout.
    const std::string label =
        "kc-crtless-" + std::to_string(::getpid());
    const RsaPrivateKey expected = deterministicKey(label, 512);
    RsaPrivateKey stale = expected;
    stale.dP = BigNum();
    stale.dQ = BigNum();
    stale.qInv = BigNum();

    const std::string path = diskPathFor(label, 512);
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good());
        const Bytes wire = stale.encode();
        out.write(reinterpret_cast<const char *>(wire.data()),
                  static_cast<std::streamsize>(wire.size()));
    }

    const std::uint64_t before = primeGenerationCount();
    const RsaPrivateKey &served = cachedKey(label, 512);
    EXPECT_GT(primeGenerationCount(), before)
        << "CRT-less file was served instead of regenerated";
    EXPECT_TRUE(served.hasCrt());
    EXPECT_EQ(served.encode(), expected.encode());

    // The file now holds the full layout for the next process.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const Bytes wire((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(wire, expected.encode());
    std::remove(path.c_str());
}

} // namespace
} // namespace mintcb::crypto
