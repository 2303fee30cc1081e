/**
 * @file
 * The simulation driver's default configuration.
 *
 * `Simulator` is the engine (ParallelSimulator, core/parallel.hh) in
 * its default configuration: one shard, no cross-shard channel
 * (lookahead kMaxTick), one thread. It drives a single-shard world
 * through the engine's shard-0 shorthands — now(), schedule(),
 * scheduleAt(), queue(), addClockObserver(interval, fn) — and its
 * run(), runUntil() and runFor(). Model components do not hold it
 * directly: they schedule through a SimContext (core/sim_context.hh),
 * which a Simulator converts to implicitly.
 */

#ifndef UQSIM_CORE_SIMULATOR_HH
#define UQSIM_CORE_SIMULATOR_HH

#include "core/parallel.hh"

namespace uqsim {

/** The one-shard, one-thread engine (see file comment). */
using Simulator = ParallelSimulator;

} // namespace uqsim

#endif // UQSIM_CORE_SIMULATOR_HH
