/**
 * @file
 * RSA from scratch: key generation, PKCS#1 v1.5 signatures and encryption.
 *
 * The TPM v1.2 operations the paper measures are dominated by 2048-bit RSA:
 * Quote signs with the AIK, Seal/Unseal encrypt/decrypt under the Storage
 * Root Key (Section 4.2: "Both TPM Quote and TPM Unseal perform a private
 * RSA operation (digital signature and decrypt, respectively), which is
 * their dominant source of overhead"). mintcb performs those operations for
 * real so seal/quote round-trips are end-to-end verifiable.
 */

#ifndef MINTCB_CRYPTO_RSA_HH
#define MINTCB_CRYPTO_RSA_HH

#include <cstdint>

#include "common/result.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "crypto/bignum.hh"

namespace mintcb::crypto
{

/** Public half of an RSA key pair. */
struct RsaPublicKey
{
    BigNum n; //!< modulus
    BigNum e; //!< public exponent (65537)

    /** Modulus size in whole bytes. */
    std::size_t
    modulusBytes() const
    {
        return (n.bitLength() + 7) / 8;
    }

    /** Stable fingerprint (SHA-1 of the encoded key) for certificates. */
    Bytes fingerprint() const;

    /** Wire encoding (length-prefixed n and e). */
    Bytes encode() const;
    static Result<RsaPublicKey> decode(const Bytes &wire);
};

/** Private RSA key with CRT components. */
struct RsaPrivateKey
{
    RsaPublicKey pub;
    BigNum d;    //!< private exponent
    BigNum p;    //!< first prime
    BigNum q;    //!< second prime
    BigNum dP;   //!< d mod (p-1)
    BigNum dQ;   //!< d mod (q-1)
    BigNum qInv; //!< q^{-1} mod p

    /** True when every CRT parameter is present (fast private op). */
    bool hasCrt() const;

    /** Wire encoding for the process-wide key cache (always the full
     *  eight-field layout). */
    Bytes encode() const;

    /** Decode the eight-field layout encode() writes; a wire with
     *  fewer fields is refused with invalidArgument. */
    static Result<RsaPrivateKey> decode(const Bytes &wire);
};

/** Generate an RSA key pair with modulus of exactly @p bits bits. */
RsaPrivateKey rsaGenerate(Rng &rng, std::size_t bits);

/** Raw RSA public operation m^e mod n (m must be < n). */
BigNum rsaPublicOp(const RsaPublicKey &key, const BigNum &m);

/** Raw RSA private operation via CRT. */
BigNum rsaPrivateOp(const RsaPrivateKey &key, const BigNum &c);

/**
 * PKCS#1 v1.5 signature over @p message using SHA-1 DigestInfo (the v1.2
 * TPM's signing format).
 */
Bytes rsaSignSha1(const RsaPrivateKey &key, const Bytes &message);

/** Verify a PKCS#1 v1.5 / SHA-1 signature. */
bool rsaVerifySha1(const RsaPublicKey &key, const Bytes &message,
                   const Bytes &signature);

/**
 * PKCS#1 v1.5 type-2 encryption. The plaintext must be at most
 * modulusBytes() - 11 bytes.
 */
Result<Bytes> rsaEncrypt(const RsaPublicKey &key, Rng &rng,
                         const Bytes &plaintext);

/** Decrypt a PKCS#1 v1.5 type-2 ciphertext. */
Result<Bytes> rsaDecrypt(const RsaPrivateKey &key, const Bytes &ciphertext);

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_RSA_HH
