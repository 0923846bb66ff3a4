#include "service/session_table.h"

#include <cstdio>
#include <filesystem>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/logging.h"

namespace petabricks {
namespace service {

namespace fs = std::filesystem;

namespace {

constexpr int64_t kSpecVersion = 1; ///< KvFile::seal; specs had none

/** The spec spooled at @p path; one from before the seal has no seal. */
SessionSpec
loadSpec(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    if (kv.has("spec.version") || kv.has("spec.checksum"))
        kv.verifySeal("spec", kSpecVersion, path);
    return SessionSpec::fromKv(kv);
}

} // namespace

SessionTable::SessionTable(SessionTableOptions options)
    : options_(std::move(options))
{
    PB_ASSERT(!options_.spoolDir.empty(), "spool directory is required");
    PB_ASSERT(options_.residentCap >= 1, "resident cap must be >= 1");
    std::error_code ec;
    fs::create_directories(options_.spoolDir, ec);
    if (ec)
        PB_FATAL("cannot create spool directory '" << options_.spoolDir
                                                   << "': "
                                                   << ec.message());

    fsckSpoolDir();

    // A restarted daemon must never hand out an id that collides with
    // a spooled session from its previous life.
    for (const std::string &path :
         fsck::list(options_.spoolDir, fsck::FileKind::SpoolMeta)) {
        std::string stem = fs::path(path).stem().string();
        if (stem.size() > 1 && stem[0] == 's') {
            char *end = nullptr;
            uint64_t n = std::strtoull(stem.c_str() + 1, &end, 10);
            if (end && *end == '\0' && n > nextId_)
                nextId_ = n;
        }
    }
}

void
SessionTable::fsckSpoolDir()
{
    // Quarantine = rename, not delete: a corrupt pair is preserved for
    // post-mortem while becoming invisible to every later spool scan
    // (resume, id allocation, this fsck on the next boot).
    auto quarantine = [&](const std::string &id, const char *why) {
        for (const std::string &path : spoolFiles(id)) {
            std::error_code ec;
            if (fs::exists(path, ec))
                fsck::quarantine(path);
        }
        ++stats_.spoolQuarantined;
        PB_WARN("service: quarantined spooled session '" << id << "' ("
                                                         << why << ")");
    };

    // A spool file's session id is its name up to the first '.' (ids
    // are `s<digits>`), whichever checkpoint slot it is.
    auto ids = [&](fsck::FileKind kind) {
        std::vector<std::string> out;
        for (const std::string &path : fsck::list(options_.spoolDir, kind)) {
            const std::string name = fs::path(path).filename().string();
            out.push_back(name.substr(0, name.find('.')));
        }
        return out;
    };
    const std::vector<std::string> metaIds =
        ids(fsck::FileKind::SpoolMeta);
    const std::vector<std::string> orphanCkptIds =
        ids(fsck::FileKind::SpoolCheckpoint);

    for (const std::string &id : metaIds) {
        try {
            // The full rehydration path: spec parse, session build,
            // checkpoint restore. Anything a later resume would trip
            // over trips here instead, once, at boot.
            HostedSession probe(loadSpec(metaPath(id)));
            stats_.slotsQuarantined += probe.load(checkpointPath(id));
        } catch (const std::exception &e) {
            quarantine(id, e.what());
        }
    }
    // A ckpt whose meta was just quarantined was renamed with it, and
    // both slots of one session are listed — re-check existence so
    // nothing is counted twice.
    for (const std::string &id : orphanCkptIds) {
        const std::string ckpt = checkpointPath(id);
        if (!fs::exists(metaPath(id)) &&
            (fs::exists(SlotFile::slotPath(ckpt, 0)) ||
             fs::exists(SlotFile::slotPath(ckpt, 1))))
            quarantine(id, "checkpoint without a .meta spec");
    }
}

std::string
SessionTable::checkpointPath(const std::string &id) const
{
    return options_.spoolDir + "/" + id + ".ckpt";
}

std::string
SessionTable::metaPath(const std::string &id) const
{
    return options_.spoolDir + "/" + id + ".meta";
}

std::vector<std::string>
SessionTable::spoolFiles(const std::string &id) const
{
    const std::string ckpt = checkpointPath(id);
    return {metaPath(id), SlotFile::slotPath(ckpt, 0),
            SlotFile::slotPath(ckpt, 1)};
}

SessionTable::EntryPtr
SessionTable::find(const std::string &id) const
{
    auto it = entries_.find(id);
    if (it == entries_.end())
        PB_FATAL("unknown session '" << id << "'");
    return it->second;
}

void
SessionTable::waitNotBusy(Entry &entry, std::unique_lock<std::mutex> &lock)
{
    entry.busyCv.wait(lock, [&] { return !entry.busy || entry.dead; });
    if (entry.dead)
        PB_FATAL("session '" << entry.id << "' was stopped");
}

void
SessionTable::evict(Entry &entry)
{
    PB_ASSERT(entry.session && !entry.busy,
              "evicting a session that is not resident and idle");
    entry.lastStatus = entry.session->introspect();
    try {
        entry.session->save(checkpointPath(entry.id));
    } catch (const IoError &e) {
        // Evict anyway: the spool keeps the last good checkpoint, and
        // resuming it replays to the identical champion (the same
        // guarantee a SIGKILL mid-step leans on).
        spoolWriteFailures_.fetch_add(1, std::memory_order_relaxed);
        PB_WARN("service: eviction checkpoint for session "
                << entry.id << " failed, spool keeps last good state ("
                << e.what() << ")");
    }
    entry.session.reset();
    --resident_;
    ++stats_.evictions;
    PB_DEBUG("service: evicted session " << entry.id);
}

void
SessionTable::acquireIdleResident(Entry &entry,
                                  std::unique_lock<std::mutex> &lock)
{
    for (;;) {
        // Both halves of the predicate — nobody stepping this entry AND
        // the entry resident — must be observed under one continuous
        // lock hold. Every wait below drops the mutex (letting another
        // caller slip in, mark the entry busy, and start stepping), so
        // after any wake the whole check starts over.
        waitNotBusy(entry, lock);
        if (entry.session)
            return;
        if (resident_ < options_.residentCap) {
            // Rebuild from the immutable spec, then restore the last
            // checkpoint if one exists (a never-stepped session has
            // none; generation 0 is exactly its saved state). The lock
            // is held throughout, so the idle check above still holds.
            auto session = std::make_unique<HostedSession>(
                entry.spec, options_.sharedCache);
            stats_.slotsQuarantined +=
                session->load(checkpointPath(entry.id));
            entry.session = std::move(session);
            entry.lastStatus = entry.session->introspect();
            ++resident_;
            ++stats_.rehydrations;
            stats_.peakResident = std::max(stats_.peakResident, resident_);
            PB_DEBUG("service: rehydrated session " << entry.id);
            return;
        }
        // At capacity: evict the least-recently-touched idle resident
        // (no lock drop), or wait for a stepping worker to finish and
        // free one (lock drop — loop back and re-check busy too).
        Entry *victim = nullptr;
        for (auto &[id, candidate] : entries_)
            if (candidate->session && !candidate->busy &&
                candidate.get() != &entry &&
                (!victim || candidate->lastTouch < victim->lastTouch))
                victim = candidate.get();
        if (victim)
            evict(*victim);
        else
            roomCv_.wait(lock);
    }
}

std::string
SessionTable::create(const SessionSpec &spec)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const std::string id = "s" + std::to_string(++nextId_);
    auto entry = std::make_shared<Entry>();
    entry->id = id;
    entry->spec = spec;
    entry->lastTouch = std::chrono::steady_clock::now();
    entries_[id] = entry;
    // The spec is immutable: persist it now, so the session survives a
    // daemon crash from the moment create returns. A failed meta write
    // degrades to memory-only (the session works but will not survive
    // a restart; its orphan checkpoint is quarantined by the next
    // boot's fsck) — the daemon itself must keep serving.
    // Sealed here, not in toKv(): /create echoes toKv() to the client.
    try {
        spec.toKv().seal("spec", kSpecVersion).saveAtomic(metaPath(id),
                                                           "spool.meta");
    } catch (const IoError &e) {
        spoolWriteFailures_.fetch_add(1, std::memory_order_relaxed);
        PB_WARN("service: meta write for session "
                << id << " failed, session is memory-only (" << e.what()
                << ")");
    }
    // Residency accounting (including the rehydration counter: a
    // create is the first hydration) goes through the same path as a
    // spool reload.
    acquireIdleResident(*entry, lock);
    ++stats_.created;
    return id;
}

std::string
SessionTable::resume(const std::string &id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
        // Already known (not restarted, just evicted or live): a
        // resume is simply a touch that guarantees residency.
        EntryPtr entry = it->second;
        acquireIdleResident(*entry, lock);
        entry->lastTouch = std::chrono::steady_clock::now();
        ++stats_.resumed;
        return id;
    }
    const std::string meta = metaPath(id);
    if (!fs::exists(meta))
        PB_FATAL("no spooled session '" << id << "' to resume");
    auto entry = std::make_shared<Entry>();
    entry->id = id;
    entry->spec = loadSpec(meta);
    entry->lastTouch = std::chrono::steady_clock::now();
    entries_[id] = entry;
    acquireIdleResident(*entry, lock);
    ++stats_.resumed;
    return id;
}

int
SessionTable::step(const std::string &id, int steps)
{
    std::unique_lock<std::mutex> lock(mutex_);
    EntryPtr entry = find(id);
    acquireIdleResident(*entry, lock);
    entry->busy = true;
    entry->lastTouch = std::chrono::steady_clock::now();
    HostedSession *session = entry->session.get();
    lock.unlock();

    // The long part runs without the table mutex: other sessions keep
    // stepping, status stays responsive, only *this* session is held
    // (busy flag). Checkpoint after every generation when configured —
    // one slot written in place per step, the other left intact, so
    // SIGKILL at any instant leaves a loadable on-trajectory checkpoint.
    int advanced = 0;
    std::exception_ptr error;
    // A failed checkpoint write must not fail the step: the in-memory
    // search is intact, and the spool still holds the last good
    // checkpoint — which, by the determinism guarantee, resumes to the
    // identical champion. Count it, warn, keep tuning.
    auto checkpoint = [&] {
        try {
            session->save(checkpointPath(id));
        } catch (const IoError &e) {
            spoolWriteFailures_.fetch_add(1, std::memory_order_relaxed);
            PB_WARN("service: checkpoint write for session "
                    << id << " failed, spool keeps last good state ("
                    << e.what() << ")");
        }
    };
    try {
        std::function<void()> afterStep;
        if (options_.checkpointEachStep)
            afterStep = checkpoint;
        advanced = session->stepMany(steps, afterStep);
        if (!options_.checkpointEachStep)
            checkpoint();
    } catch (...) {
        error = std::current_exception();
    }

    lock.lock();
    entry->busy = false;
    entry->lastTouch = std::chrono::steady_clock::now();
    entry->lastStatus = session->introspect();
    entry->busyCv.notify_all();
    roomCv_.notify_all();
    if (error)
        std::rethrow_exception(error);
    return advanced;
}

tuner::SessionIntrospection
SessionTable::status(const std::string &id) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    EntryPtr entry = find(id);
    // Live sessions answer from their snapshot (safe mid-step); cold
    // ones from the status recorded at eviction. Neither blocks, and
    // neither counts as a touch.
    if (entry->session)
        return entry->session->introspect();
    return entry->lastStatus;
}

SessionSpec
SessionTable::spec(const std::string &id) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return find(id)->spec;
}

KvFile
SessionTable::champion(const std::string &id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    EntryPtr entry = find(id);
    acquireIdleResident(*entry, lock);
    entry->lastTouch = std::chrono::steady_clock::now();
    return entry->session->championKv();
}

void
SessionTable::stop(const std::string &id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    EntryPtr entry = find(id);
    waitNotBusy(*entry, lock);
    if (entry->session) {
        entry->session.reset();
        --resident_;
    }
    entry->dead = true;
    entry->busyCv.notify_all();
    entries_.erase(id);
    ++stats_.stopped;
    removeSpoolFiles(id);
    roomCv_.notify_all();
}

std::vector<std::string>
SessionTable::list() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::vector<std::string> ids;
    ids.reserve(entries_.size());
    for (const auto &[id, entry] : entries_)
        ids.push_back(id);
    return ids;
}

void
SessionTable::sweep(std::chrono::steady_clock::time_point now)
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::vector<std::string> expired;
    for (auto &[id, entry] : entries_) {
        if (entry->busy)
            continue;
        const auto idle = std::chrono::duration_cast<std::chrono::seconds>(
                              now - entry->lastTouch)
                              .count();
        if (entry->session && options_.idleEvictSeconds > 0 &&
            idle >= options_.idleEvictSeconds)
            evict(*entry);
        if (!entry->session && options_.expireSeconds > 0 &&
            idle >= options_.expireSeconds)
            expired.push_back(id);
    }
    for (const std::string &id : expired) {
        EntryPtr entry = entries_[id];
        entry->dead = true;
        entry->busyCv.notify_all();
        entries_.erase(id);
        removeSpoolFiles(id);
        ++stats_.expired;
        PB_DEBUG("service: expired abandoned session " << id);
    }
    if (!expired.empty())
        roomCv_.notify_all();
}

void
SessionTable::checkpointAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto &[id, entry] : entries_) {
        if (!entry->session)
            continue; // evicted: the spool already has its state
        if (entry->busy) {
            PB_WARN("service: checkpointAll skipping busy session "
                    << id);
            continue;
        }
        entry->lastStatus = entry->session->introspect();
        try {
            entry->session->save(checkpointPath(id));
        } catch (const IoError &e) {
            spoolWriteFailures_.fetch_add(1, std::memory_order_relaxed);
            PB_WARN("service: checkpointAll write for session "
                    << id << " failed (" << e.what() << ")");
        }
    }
}

SessionTableStats
SessionTable::stats() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    SessionTableStats stats = stats_;
    stats.spoolWriteFailures =
        spoolWriteFailures_.load(std::memory_order_relaxed);
    stats.resident = resident_;
    stats.total = entries_.size();
    for (const auto &[id, entry] : entries_) {
        // Live entries answer from their snapshot (safe mid-step);
        // evicted ones from the status recorded at eviction.
        const tuner::SessionIntrospection view =
            entry->session ? entry->session->introspect()
                           : entry->lastStatus;
        stats.evaluationFailures += view.evaluationFailures;
    }
    return stats;
}

void
SessionTable::removeSpoolFiles(const std::string &id)
{
    for (const std::string &path : spoolFiles(id))
        std::remove(path.c_str());
}

} // namespace service
} // namespace petabricks
