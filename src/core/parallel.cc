#include "core/parallel.hh"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "core/logging.hh"

namespace uqsim {

namespace {

/** a + b clamped to kMaxTick (lookahead may be "infinite"). */
Tick
satAdd(Tick a, Tick b)
{
    return a > kMaxTick - b ? kMaxTick : a + b;
}

/** Finalization mix (splitmix64) for composing shard digests. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

ParallelSimulator::ParallelSimulator() : ParallelSimulator(Config{}) {}

ParallelSimulator::ParallelSimulator(Config config)
    : lookahead_(config.lookahead),
      nthreads_(std::max(1u, std::min(config.threads, config.shards))),
      barrier_(nthreads_)
{
    if (config.shards == 0)
        panic("ParallelSimulator with zero shards");
    if (config.lookahead == 0)
        panic("ParallelSimulator with zero lookahead (cross-shard "
              "events would never be safe to buffer)");
    shards_.reserve(config.shards);
    for (unsigned i = 0; i < config.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    workers_.reserve(nthreads_ - 1);
    for (unsigned t = 1; t < nthreads_; ++t)
        workers_.emplace_back([this, t]() { workerLoop(t); });
}

ParallelSimulator::~ParallelSimulator()
{
    // Workers wait at a round's start; this arrival releases them into
    // the shutdown check instead.
    shutdown_ = true;
    barrier_.arrive_and_wait();
    for (std::thread &t : workers_)
        t.join();
}

SimContext
ParallelSimulator::context(unsigned shard)
{
    if (shard >= shards_.size())
        panic(strCat("context(", shard, ") out of range; ",
                     shards_.size(), " shards"));
    Shard &s = *shards_[shard];
    return SimContext(s.queue, s.now, shard, *this);
}

Tick
ParallelSimulator::now(unsigned shard) const
{
    if (shard >= shards_.size())
        panic(strCat("now(", shard, ") out of range"));
    return shards_[shard]->now;
}

void
ParallelSimulator::postToShard(unsigned src, unsigned dst, Tick when,
                               EventCallback cb)
{
    if (dst >= shards_.size())
        panic(strCat("postToShard(", dst, ") out of range; ",
                     shards_.size(), " shards"));
    Shard &from = *shards_[src];
    if (dst == src) {
        // Same-shard fast path: an ordinary local event.
        from.queue.schedule(when, std::move(cb));
        return;
    }
    // The conservative contract: anything crossing a shard boundary
    // must land at least `lookahead` after the sender's clock,
    // otherwise the window [minNext, minNext+lookahead) already being
    // executed elsewhere could contain the delivery time.
    if (when < satAdd(from.now, lookahead_))
        panic(strCat("cross-shard event from shard ", src, " (now=",
                     from.now, ") to shard ", dst, " at when=", when,
                     " violates lookahead ", lookahead_));
    // Only the thread running shard `src` posts from it (the same rule
    // mailSeq relies on), so the sender's own outbox needs no lock.
    from.outbox.push_back(Mail{dst, src, when, from.mailSeq++,
                               std::move(cb)});
}

void
ParallelSimulator::deliverMail()
{
    for (auto &s : shards_) {
        std::move(s->outbox.begin(), s->outbox.end(),
                  std::back_inserter(merge_));
        s->outbox.clear();
    }
    // (when, src, seq) is a total order per destination: seq is unique
    // per source. Each destination's queue thus receives its mail in
    // the same order whatever thread ran which sender.
    std::sort(merge_.begin(), merge_.end(),
              [](const Mail &a, const Mail &b) {
                  return std::tie(a.dst, a.when, a.src, a.seq) <
                         std::tie(b.dst, b.when, b.src, b.seq);
              });
    for (Mail &m : merge_) {
        Shard &s = *shards_[m.dst];
        if (m.when < s.now)
            panic(strCat("mailbox delivery at when=", m.when,
                         " behind shard ", m.dst, " clock now=", s.now,
                         " (lookahead too small?)"));
        s.queue.schedule(m.when, std::move(m.cb));
    }
    merge_.clear();
}

void
ParallelSimulator::addClockObserver(unsigned shard, Tick interval,
                                    ClockObserverFn fn)
{
    if (shard >= shards_.size())
        panic(strCat("addClockObserver(", shard, ") out of range; ",
                     shards_.size(), " shards"));
    if (interval == 0)
        panic("addClockObserver with zero interval");
    Shard &s = *shards_[shard];
    Tick first = interval;
    while (first <= s.now)
        first += interval;
    s.observers.push_back(ClockObserver{interval, first, std::move(fn)});
    s.nextBoundary = std::min(s.nextBoundary, first);
}

void
ParallelSimulator::fireObservers(Shard &s, Tick limit)
{
    if (limit < s.nextBoundary)
        return;
    s.nextBoundary = kMaxTick;
    for (ClockObserver &o : s.observers) {
        while (o.next <= limit) {
            o.fn(o.next);
            if (o.next > kMaxTick - o.interval) {
                o.next = kMaxTick; // saturate instead of wrapping
                break;
            }
            o.next += o.interval;
        }
        s.nextBoundary = std::min(s.nextBoundary, o.next);
    }
}

void
ParallelSimulator::runShard(Shard &s, Tick horizon)
{
    EventQueue &q = s.queue;
    if (s.observers.empty()) {
        // Observer-free fast path: no per-event boundary check.
        while (!q.empty() && q.nextTick() <= horizon) {
            auto [when, cb] = q.popNext();
            s.now = when;
            cb();
        }
        return;
    }
    while (!q.empty() && q.nextTick() <= horizon) {
        // Boundaries <= the next local event time are due. Nothing
        // at or below the horizon can still arrive by mail (the
        // lookahead contract), so all events < boundary have already
        // executed — the lazily-fired sample equals an eagerly-fired
        // one.
        fireObservers(s, q.nextTick());
        auto [when, cb] = q.popNext();
        s.now = when;
        cb();
    }
}

void
ParallelSimulator::runRound(Tick horizon)
{
    roundHorizon_ = horizon;
    barrier_.arrive_and_wait();
    runShards(0);
    barrier_.arrive_and_wait();
}

void
ParallelSimulator::runShards(unsigned thread)
{
    // Static shard-to-thread assignment: shard s runs on thread
    // s % nthreads_, every round, so per-shard execution is
    // sequential across rounds as well as within one.
    for (unsigned s = thread; s < shards_.size(); s += nthreads_)
        runShard(*shards_[s], roundHorizon_);
}

void
ParallelSimulator::workerLoop(unsigned thread)
{
    while (true) {
        barrier_.arrive_and_wait();
        if (shutdown_)
            return;
        runShards(thread);
        barrier_.arrive_and_wait();
    }
}

void
ParallelSimulator::drain(Tick deadline)
{
    while (true) {
        deliverMail();
        bool pending = false;
        Tick min_next = kMaxTick;
        for (const auto &s : shards_)
            if (!s->queue.empty()) {
                pending = true;
                min_next = std::min(min_next, s->queue.nextTick());
            }
        if (!pending || min_next > deadline)
            return;
        // Mail sent in this round lands at >= min_next + lookahead, so
        // the round may run through one tick before that; satAdd keeps
        // an "infinite" lookahead from wrapping.
        runRound(std::min(deadline, satAdd(min_next, lookahead_ - 1)));
    }
}

void
ParallelSimulator::runUntil(Tick deadline)
{
    for (const auto &s : shards_)
        if (deadline < s->now)
            panic(strCat("runUntil(", deadline, ") in the past; shard "
                         "clock now=", s->now));
    drain(deadline);
    for (auto &s : shards_) {
        s->now = deadline;
        // The window is fully executed on every shard: flush each
        // shard's boundaries it covers (driver thread, deterministic).
        fireObservers(*s, deadline);
    }
}

void
ParallelSimulator::run()
{
    drain(kMaxTick);
}

void
ParallelSimulator::runFor(Tick duration)
{
    Tick start = 0;
    for (const auto &s : shards_)
        start = std::max(start, s->now);
    runUntil(satAdd(start, duration));
}

EventHandle
ParallelSimulator::scheduleAt(Tick when, EventCallback cb)
{
    return context(0).scheduleAt(when, std::move(cb));
}

std::uint64_t
ParallelSimulator::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &s : shards_)
        total += s->queue.executedCount();
    return total;
}

std::uint64_t
ParallelSimulator::shardDigest(unsigned shard) const
{
    if (shard >= shards_.size())
        panic(strCat("shardDigest(", shard, ") out of range"));
    return shards_[shard]->queue.executionDigest();
}

std::uint64_t
ParallelSimulator::executionDigest() const
{
    // One shard reports its own digest verbatim, so --shards 1 keeps
    // every pinned single-world digest.
    if (shards_.size() == 1)
        return shards_[0]->queue.executionDigest();
    // Commutative composition (wrapping sum of a per-shard mix): the
    // result does not depend on any cross-shard ordering, only on each
    // shard's own order-sensitive digest. The shard id is folded in so
    // two identical shards do not cancel.
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < shards_.size(); ++i)
        acc += mix64(shards_[i]->queue.executionDigest() ^
                     (0x9e3779b97f4a7c15ull * (i + 1)));
    return acc;
}

// -- SimContext methods needing the engine definition -------------------

SimContext::SimContext(ParallelSimulator &engine)
    : SimContext(engine.context(0))
{}

void
SimContext::postToShard(unsigned dst, Tick delay, EventCallback cb)
{
    engine_->postToShard(shard_, dst, satAdd(now(), delay), std::move(cb));
}

void
SimContext::addClockObserver(Tick interval, ClockObserverFn fn)
{
    engine_->addClockObserver(shard_, interval, std::move(fn));
}

unsigned
SimContext::shardCount() const
{
    return engine_->shardCount();
}

Tick
SimContext::lookahead() const
{
    return engine_->lookahead();
}

void
SimContext::run()
{
    engine_->run();
}

void
SimContext::runUntil(Tick deadline)
{
    engine_->runUntil(deadline);
}

void
SimContext::runFor(Tick duration)
{
    engine_->runFor(duration);
}

void
SimContext::pastScheduleError(Tick when) const
{
    const Tick now_tick = *now_;
    panic(strCat("scheduleAt(when=", when, ") is ", now_tick - when,
                 " ticks in the past (now=", now_tick,
                 shardCount() > 1 ? strCat(", shard ", shard_) : "", ")"));
}

} // namespace uqsim
