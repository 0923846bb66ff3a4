#include "support/crashpoint.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>

#include "support/error.h"

namespace petabricks {
namespace crashpoint {

namespace {

struct Arm {
    Action action = Action::None;
    size_t keepBytes = 0;
    bool explicitBytes = false;
    int targetHit = 1; // 1-based traversal count at which to fire
};

struct State {
    std::mutex mutex;
    std::set<std::string> registry;
    std::map<std::string, Arm> schedule;
    std::map<std::string, int> hits;
    // Fast-path gate: persistence calls pay one relaxed load when no
    // schedule is armed. Starts true iff the env var is present so the
    // first traversal parses it (registration statics have run by
    // then); setSchedule keeps it in sync afterwards.
    std::atomic<bool> maybeArmed{false};
    bool envPending = false;

    State()
    {
        // The built-in persistence paths are registered HERE, not by
        // static initializers in their own translation units: with a
        // static library, an archive member whose symbols a binary
        // never references is dropped wholesale, initializers
        // included, and the catalog would silently shrink depending on
        // what each binary happens to link. This TU is always pulled
        // in (anything that arms or fires a point calls into it).
        for (const char *prefix :
             {"spool.meta", "cache.seg", "portfolio.champ"})
            for (const char *suffix :
                 {".pre_write", ".write", ".pre_rename", ".post_rename"})
                registry.insert(std::string(prefix) + suffix);
        // Checkpoints are rewritten in place (support/slot_file.h).
        for (const char *suffix :
             {".pre_write", ".write", ".pre_sync", ".post_sync"})
            registry.insert(std::string("spool.ckpt") + suffix);

        if (const char *env = std::getenv("PB_CRASH_SCHEDULE");
            env && *env) {
            envPending = true;
            maybeArmed.store(true, std::memory_order_relaxed);
        }
    }
};

State &
state()
{
    static State s;
    return s;
}

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

Action
parseAction(const std::string &word, const std::string &item)
{
    if (word == "kill")
        return Action::Kill;
    if (word == "torn")
        return Action::Torn;
    if (word == "enospc")
        return Action::Enospc;
    if (word == "eio")
        return Action::Eio;
    PB_FATAL("crash schedule '" << item << "': unknown action '" << word
                                << "' (want kill|torn|enospc|eio)");
}

/** Parse `name[@hit]=action[:bytes]` items into s.schedule (locked). */
void
parseScheduleLocked(State &s, const std::string &spec)
{
    std::map<std::string, Arm> parsed;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        std::string item = trim(spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos));
        pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos)
            PB_FATAL("crash schedule item '" << item << "' has no '='");
        std::string lhs = trim(item.substr(0, eq));
        std::string rhs = trim(item.substr(eq + 1));
        Arm arm;
        size_t at = lhs.find('@');
        std::string name = lhs;
        if (at != std::string::npos) {
            name = trim(lhs.substr(0, at));
            try {
                arm.targetHit = std::stoi(lhs.substr(at + 1));
            } catch (const std::exception &) {
                PB_FATAL("crash schedule '" << item << "': bad hit count");
            }
            if (arm.targetHit < 1)
                PB_FATAL("crash schedule '" << item
                                            << "': hit count must be >= 1");
        }
        size_t colon = rhs.find(':');
        std::string actionWord = rhs;
        if (colon != std::string::npos) {
            actionWord = trim(rhs.substr(0, colon));
            try {
                arm.keepBytes = std::stoul(rhs.substr(colon + 1));
                arm.explicitBytes = true;
            } catch (const std::exception &) {
                PB_FATAL("crash schedule '" << item << "': bad byte count");
            }
        }
        arm.action = parseAction(actionWord, item);
        if (!s.registry.count(name))
            PB_FATAL("crash schedule names unregistered point '"
                     << name << "' (see crashpoint::catalog())");
        if (arm.action != Action::Kill &&
            (name.size() < 6 ||
             name.compare(name.size() - 6, 6, ".write") != 0))
            PB_FATAL("crash schedule '"
                     << item << "': " << actionWord
                     << " is only meaningful at a .write point");
        parsed[name] = arm;
    }
    s.schedule = std::move(parsed);
    s.hits.clear();
    s.maybeArmed.store(!s.schedule.empty(), std::memory_order_relaxed);
}

/** Load PB_CRASH_SCHEDULE if it has not been consumed yet (locked). */
void
ensureEnvLoadedLocked(State &s)
{
    if (!s.envPending)
        return;
    s.envPending = false;
    const char *env = std::getenv("PB_CRASH_SCHEDULE");
    if (env && *env)
        parseScheduleLocked(s, env);
    else
        s.maybeArmed.store(!s.schedule.empty(),
                           std::memory_order_relaxed);
}

/** Look up the action for this traversal of @p name (locked). */
Arm
hitLocked(State &s, const std::string &name)
{
    auto it = s.schedule.find(name);
    if (it == s.schedule.end())
        return Arm{};
    int hit = ++s.hits[name];
    if (hit != it->second.targetHit)
        return Arm{};
    return it->second;
}

[[noreturn]] void
killAt(const std::string &name)
{
    // Async-signal-safe-ish: raw write, then _exit so no destructors,
    // atexit handlers, or buffered streams run — this is simulating a
    // power cut at a precise point in the persistence sequence.
    std::string msg =
        "crashpoint: killing process at '" + name + "'\n";
    ssize_t ignored = ::write(STDERR_FILENO, msg.data(), msg.size());
    (void)ignored;
    ::_exit(kCrashExitCode);
}

} // namespace

void
fire(const std::string &name)
{
    State &s = state();
    if (!s.maybeArmed.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(s.mutex);
    ensureEnvLoadedLocked(s);
    Arm arm = hitLocked(s, name);
    if (arm.action == Action::Kill)
        killAt(name);
    // Write faults scheduled on a non-write point are rejected at
    // parse time, so anything else here is None.
}

WriteFault
fireWrite(const std::string &name)
{
    State &s = state();
    if (!s.maybeArmed.load(std::memory_order_relaxed))
        return WriteFault{};
    std::lock_guard<std::mutex> lock(s.mutex);
    ensureEnvLoadedLocked(s);
    Arm arm = hitLocked(s, name);
    if (arm.action == Action::Kill)
        killAt(name);
    return WriteFault{arm.action, arm.keepBytes, arm.explicitBytes};
}

void
setSchedule(const std::string &spec)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.envPending = false; // explicit schedule overrides the env var
    parseScheduleLocked(s, spec);
}

void
clearSchedule()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.envPending = false;
    s.schedule.clear();
    s.hits.clear();
    s.maybeArmed.store(false, std::memory_order_relaxed);
}

bool
armed()
{
    State &s = state();
    if (!s.maybeArmed.load(std::memory_order_relaxed))
        return false;
    std::lock_guard<std::mutex> lock(s.mutex);
    ensureEnvLoadedLocked(s);
    return !s.schedule.empty();
}

std::vector<std::string>
catalog()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return {s.registry.begin(), s.registry.end()};
}

} // namespace crashpoint
} // namespace petabricks
