/**
 * @file
 * Key cache implementation.
 */

#include "crypto/keycache.hh"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>

#include "common/hex.hh"
#include "crypto/sha256.hh"

namespace mintcb::crypto
{

namespace
{

/**
 * Keys are deterministic functions of (label, bits), so a filesystem cache
 * is purely a wall-time optimization: every test process would otherwise
 * redo the same 2048-bit generation. A corrupt, stale or CRT-less file
 * fails the load and falls back to regeneration, which rewrites it.
 */
std::string
cachePath(const std::string &label, std::size_t bits)
{
    const char *tmp = std::getenv("TMPDIR");
    const std::string dir = tmp ? tmp : "/tmp";
    const Bytes digest =
        Sha256::digestBytes(asciiBytes(label + ":" +
                                       std::to_string(bits)));
    return dir + "/mintcb-key-" +
           toHex(Bytes(digest.begin(), digest.begin() + 16)) + ".bin";
}

bool
loadFromDisk(const std::string &path, std::size_t bits, RsaPrivateKey &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    Bytes wire((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
    auto decoded = RsaPrivateKey::decode(wire);
    if (!decoded.ok() || decoded->pub.n.bitLength() != bits ||
        !decoded->hasCrt()) {
        return false;
    }
    out = decoded.take();
    return true;
}

void
storeToDisk(const std::string &path, const RsaPrivateKey &key)
{
    // Write-then-rename so concurrent test processes never read a torn
    // file.
    const std::string tmp_path =
        path + ".tmp" + std::to_string(::getpid());
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (!out)
            return;
        const Bytes wire = key.encode();
        out.write(reinterpret_cast<const char *>(wire.data()),
                  static_cast<std::streamsize>(wire.size()));
    }
    std::rename(tmp_path.c_str(), path.c_str());
}

} // namespace

const RsaPrivateKey &
cachedKey(const std::string &label, std::size_t bits)
{
    static std::map<std::pair<std::string, std::size_t>, RsaPrivateKey>
        cache;
    // The network gateway builds attested-identity machines on client
    // threads, so the cache must tolerate concurrent first use.
    // std::map nodes are stable, so returned references stay valid.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    const auto key = std::make_pair(label, bits);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    const std::string path = cachePath(label, bits);
    RsaPrivateKey loaded;
    if (loadFromDisk(path, bits, loaded)) {
        auto [inserted, _] = cache.emplace(key, std::move(loaded));
        return inserted->second;
    }

    // Derive a 64-bit seed from the label so distinct labels get distinct,
    // reproducible keys.
    const Bytes digest = Sha256::digestBytes(asciiBytes(label));
    std::uint64_t seed = static_cast<std::uint64_t>(bits);
    for (int i = 0; i < 8; ++i)
        seed = (seed << 8) ^ digest[i] ^ (seed >> 56);
    Rng rng(seed);
    auto [inserted, _] = cache.emplace(key, rsaGenerate(rng, bits));
    storeToDisk(path, inserted->second);
    return inserted->second;
}

} // namespace mintcb::crypto
