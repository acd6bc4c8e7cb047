/**
 * @file
 * RSA-CRT fast-path tests: the CRT private op must be observably
 * indistinguishable from the plain full-width modexp fallback --
 * byte-identical signatures, identical decrypts, identical raw private
 * ops over randomized keys and messages. Keys with their CRT hints
 * stripped keep working in memory, but the wire carries only the full
 * eight-field layout.
 */

#include <gtest/gtest.h>

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "common/rng.hh"
#include "crypto/keycache.hh"
#include "crypto/rsa.hh"

namespace mintcb::crypto
{
namespace
{

/** Copy of @p key with every CRT hint removed, forcing rsaPrivateOp
 *  onto the plain m = c^d mod n path. */
RsaPrivateKey
stripCrt(const RsaPrivateKey &key)
{
    RsaPrivateKey out = key;
    out.p = BigNum();
    out.q = BigNum();
    out.dP = BigNum();
    out.dQ = BigNum();
    out.qInv = BigNum();
    return out;
}

TEST(RsaCrt, PrivateOpAgreesWithPlainOverRandomMessages)
{
    const RsaPrivateKey &crt = cachedKey("rsa-crt-agree", 512);
    ASSERT_TRUE(crt.hasCrt());
    const RsaPrivateKey plain = stripCrt(crt);
    ASSERT_FALSE(plain.hasCrt());

    Rng rng(0xc47);
    for (int i = 0; i < 16; ++i) {
        // 32 random bytes are always below the 64-byte modulus.
        const BigNum m = BigNum::fromBytesBE(rng.bytes(32));
        EXPECT_EQ(rsaPrivateOp(crt, m), rsaPrivateOp(plain, m))
            << "message " << i;
    }
}

TEST(RsaCrt, RandomizedKeysAgree)
{
    // Fresh keys (not the cache's fixed ones) across several prime
    // pairs: CRT recombination must agree with the fallback for every
    // factorization, not just a lucky one.
    for (std::uint64_t seed : {0x11ull, 0x22ull, 0x33ull}) {
        Rng rng(seed);
        const RsaPrivateKey crt = rsaGenerate(rng, 256);
        ASSERT_TRUE(crt.hasCrt());
        const RsaPrivateKey plain = stripCrt(crt);
        for (int i = 0; i < 4; ++i) {
            const BigNum m = BigNum::fromBytesBE(rng.bytes(16));
            EXPECT_EQ(rsaPrivateOp(crt, m), rsaPrivateOp(plain, m))
                << "seed " << seed << " message " << i;
        }
    }
}

TEST(RsaCrt, SignaturesByteIdenticalAcrossKeyForms)
{
    // PKCS#1 v1.5 signing is deterministic, so the fast path must
    // produce the *same bytes*, not merely a signature that verifies.
    const RsaPrivateKey &crt = cachedKey("rsa-crt-agree", 512);
    const RsaPrivateKey plain = stripCrt(crt);
    const Bytes msg = asciiBytes("quote: PCR17 composite");
    EXPECT_EQ(rsaSignSha1(crt, msg), rsaSignSha1(plain, msg));
}

TEST(RsaCrt, Pkcs1InteropBothDirections)
{
    const RsaPrivateKey &crt = cachedKey("rsa-crt-agree", 512);
    const RsaPrivateKey plain = stripCrt(crt);
    const Bytes msg = asciiBytes("interop");

    // Signed by either key form, verified under the shared public key.
    EXPECT_TRUE(rsaVerifySha1(crt.pub, msg, rsaSignSha1(crt, msg)));
    EXPECT_TRUE(rsaVerifySha1(plain.pub, msg, rsaSignSha1(plain, msg)));

    // Encrypted once, decrypted by both key forms.
    Rng rng(0xdec);
    const Bytes secret = asciiBytes("sealed secret");
    auto ciphertext = rsaEncrypt(crt.pub, rng, secret);
    ASSERT_TRUE(ciphertext.ok());
    auto via_crt = rsaDecrypt(crt, *ciphertext);
    auto via_plain = rsaDecrypt(plain, *ciphertext);
    ASSERT_TRUE(via_crt.ok());
    ASSERT_TRUE(via_plain.ok());
    EXPECT_EQ(*via_crt, secret);
    EXPECT_EQ(*via_plain, secret);
}

TEST(RsaCrt, ThreeFieldWireIsRefused)
{
    // A CRT-less (n, e, d) wire is not a layout encode() writes; decode
    // refuses it rather than handing out a key on the slow path.
    const RsaPrivateKey &full = cachedKey("rsa-crt-agree", 512);
    ByteWriter w;
    w.lengthPrefixed(full.pub.n.toBytesBE());
    w.lengthPrefixed(full.pub.e.toBytesBE());
    w.lengthPrefixed(full.d.toBytesBE());
    auto decoded = RsaPrivateKey::decode(w.take());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, Errc::invalidArgument);
}

TEST(RsaCrt, GeneratedCrtParametersMatchTheirDefinitions)
{
    // dP, dQ and qInv are exactly d mod (p-1), d mod (q-1) and
    // q^-1 mod p, whether the cache generated the key or loaded it.
    const RsaPrivateKey &full = cachedKey("rsa-crt-agree", 512);
    ASSERT_TRUE(full.hasCrt());
    EXPECT_EQ(full.dP, full.d % full.p.subU64(1));
    EXPECT_EQ(full.dQ, full.d % full.q.subU64(1));
    EXPECT_EQ(full.qInv, full.q.modInverse(full.p));
}

TEST(RsaCrt, EncodeDecodeRoundTripKeepsCrtFields)
{
    const RsaPrivateKey &full = cachedKey("rsa-crt-agree", 512);
    auto decoded = RsaPrivateKey::decode(full.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded->hasCrt());
    EXPECT_EQ(decoded->p, full.p);
    EXPECT_EQ(decoded->q, full.q);
    EXPECT_EQ(decoded->dP, full.dP);
    EXPECT_EQ(decoded->dQ, full.dQ);
    EXPECT_EQ(decoded->qInv, full.qInv);
}

} // namespace
} // namespace mintcb::crypto
