/**
 * @file
 * Store reference: the sealed-store commit path timed in every traced
 * run. A SealedStore in a private work directory commits batches of 8
 * puts (128 B seed-derived values over 512 seed-chosen keys) with the
 * default auto-checkpoint every 64 commits, then is closed and reopened
 * with replay of the commits since the last checkpoint. Host time is
 * stamped at the engine's StoreObserver sync points, so one commit
 * splits into append, fsync, counter and NV-sidecar steps.
 */

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <unistd.h>

#include "common/rng.hh"
#include "harness.hh"
#include "store/engine.hh"

using namespace mintcb;

namespace perfbench
{

namespace
{

constexpr int commits = 300; // 4 checkpoints, 44 commits left to replay
constexpr int putsPerCommit = 8;
constexpr std::size_t keySpace = 512;
constexpr std::size_t valueBytes = 128;
constexpr int reopenReps = 5;

/** Host time between successive sync points of the commit path. */
class SyncStamps final : public store::StoreObserver
{
  public:
    /** commit() is about to run. */
    void mark() { last_ = nowNs(); }

    bool
    onSyncPoint(store::SyncPoint point, std::uint64_t) override
    {
        const std::int64_t now = nowNs();
        const double ms = static_cast<double>(now - last_) / 1e6;
        switch (point) {
        case store::SyncPoint::commitAppended:
            append.push_back(ms);
            break;
        case store::SyncPoint::commitSynced:
            fsync.push_back(ms);
            break;
        case store::SyncPoint::counterAdvanced:
            counter.push_back(ms);
            break;
        case store::SyncPoint::nvWritten:
            nvWrite.push_back(ms);
            checkpointStart_ = now;
            break;
        case store::SyncPoint::walRewritten:
            // Auto-checkpoint: snapshot seal + log compaction, right
            // after the commit that triggered it.
            checkpoint.push_back(
                static_cast<double>(now - checkpointStart_) / 1e6);
            break;
        default:
            break;
        }
        last_ = now;
        return false;
    }

    std::vector<double> append, fsync, counter, nvWrite, checkpoint;

  private:
    std::int64_t last_ = 0;
    std::int64_t checkpointStart_ = 0;
};

/** A fresh directory under $TMPDIR, removed with this object. */
class WorkDir
{
  public:
    WorkDir()
    {
        const char *tmp = std::getenv("TMPDIR");
        root_ = std::filesystem::path(tmp ? tmp : ".") /
                ("perfbench-store-" + std::to_string(::getpid()));
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
        std::filesystem::create_directories(root_, ec);
    }
    ~WorkDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    /** Store directory; the chip-NV sidecar goes beside it. */
    std::string state() const { return (root_ / "state").string(); }

  private:
    std::filesystem::path root_;
};

bool
failed(std::vector<std::string> &notes, const std::string &what)
{
    notes.push_back("store reference: " + what);
    return false;
}

} // namespace

bool
storeReference(std::uint64_t seed, std::map<std::string, double> &out,
               std::vector<std::string> &notes)
{
    WorkDir dir;
    SyncStamps stamps;
    store::StoreConfig config;
    config.dir = dir.state();
    config.observer = &stamps;

    auto opened = store::SealedStore::open(config);
    if (!opened)
        return failed(notes, "open: " + opened.error().str());
    std::unique_ptr<store::SealedStore> db = opened.take();
    const store::StoreStats before = db->stats();

    Rng rng(seed);
    std::map<std::string, Bytes> expected;
    std::vector<double> put_us;
    for (int c = 0; c < commits; ++c) {
        for (int p = 0; p < putsPerCommit; ++p) {
            const std::string key =
                "key-" + std::to_string(rng.nextBelow(keySpace));
            Bytes value = rng.bytes(valueBytes);
            const std::int64_t t0 = nowNs();
            const Status s = db->put(key, value);
            put_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (!s.ok())
                return failed(notes, "put: " + s.error().str());
            expected[key] = std::move(value);
        }
        stamps.mark();
        if (const Status s = db->commit(); !s.ok())
            return failed(notes, "commit: " + s.error().str());
    }
    const store::StoreStats after = db->stats();
    const Bytes digest = db->stateDigest();
    db.reset();

    std::vector<double> reopen_ms;
    for (int k = 0; k < reopenReps; ++k) {
        const std::int64_t t0 = nowNs();
        auto again = store::SealedStore::open(config);
        reopen_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        if (!again)
            return failed(notes, "reopen: " + again.error().str());
        db = again.take();
        if (db->stateDigest() != digest)
            return failed(notes, "stateDigest changed over the reopen");
        if (db->size() != expected.size())
            return failed(notes, "key count changed over the reopen");
        for (const auto &[key, value] : expected) {
            auto got = db->get(key);
            if (!got || *got != value)
                return failed(notes, "read-back of " + key + " differs");
        }
        out["store.records_replayed"] =
            static_cast<double>(db->stats().recordsReplayed);
        db.reset();
    }

    const double n = static_cast<double>(after.commits - before.commits);
    if (n != commits || stamps.checkpoint.empty())
        return failed(notes, "commit or checkpoint count is off");
    out["store.put_us"] = median(put_us);
    out["store.append_ms"] = median(stamps.append);
    out["store.fsync_ms"] = median(stamps.fsync);
    out["store.counter_ms"] = median(stamps.counter);
    out["store.nv_write_ms"] = median(stamps.nvWrite);
    out["store.fsyncs_per_commit"] =
        static_cast<double>(after.fsyncs - before.fsyncs) / n;
    out["store.wal_bytes_per_commit"] =
        static_cast<double>(after.walBytesAppended -
                            before.walBytesAppended) /
        n;
    out["store.checkpoint_ms"] = median(stamps.checkpoint);
    out["store.reopen_ms"] = median(reopen_ms);
    std::ostringstream note;
    note << "store reference: " << commits << " commits of "
         << putsPerCommit << " puts, " << stamps.checkpoint.size()
         << " checkpoints, " << reopenReps
         << " reopens; read-back and stateDigest hold";
    notes.push_back(note.str());
    return true;
}

} // namespace perfbench
