/**
 * @file
 * Utilization-threshold autoscaler (EC2-default style, Sec 6/7) over
 * the pipeline's interval series.
 *
 * The policy is deliberately the naive one the paper critiques: when a
 * watched tier's worker-thread occupancy at an interval boundary
 * reaches 0.7, add an instance of that tier after a startup delay. It
 * fixes genuine single-tier saturation (Fig 17A) but mis-scales under
 * backpressure (Fig 17B) and takes long to find the culprit of a
 * cascading violation (Fig 20).
 *
 * This is the one obs class that schedules events and adds instances:
 * everything else in src/obs samples between events and never touches
 * model state. A started AutoScaler therefore changes the execution
 * digest, just as a cluster manager acting on the simulated system
 * must; one that is constructed but never started leaves it
 * bit-identical. Decisions fire as events at the store's interval
 * boundaries, each reading the sample the pipeline closed at that
 * instant, so they are seed-deterministic.
 */

#ifndef UQSIM_OBS_AUTOSCALER_HH
#define UQSIM_OBS_AUTOSCALER_HH

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event_queue.hh"
#include "core/types.hh"
#include "cpu/server.hh"
#include "obs/pipeline.hh"

namespace uqsim::obs {

/** A scale-out decision, for timeline reporting. */
struct ScaleEvent
{
    Tick time = 0;
    std::string service;
    unsigned newInstanceCount = 0;
    /** The occupancy that triggered it. */
    double occupancy = 0.0;
};

/**
 * Threshold autoscaler over a Pipeline's series (see file comment).
 */
class AutoScaler
{
  public:
    /** Scale-out trigger on mean worker-thread occupancy. */
    static constexpr double kThreshold = 0.7;

    struct Config
    {
        /** Time before a new instance starts serving. */
        Tick startupDelay = 4 * kTicksPerSec;

        /** Minimum time between scale-outs of the same tier. */
        Tick cooldown = 5 * kTicksPerSec;

        /**
         * Scale-out budget per decision round (0 = unlimited): real
         * autoscalers upsize gradually, which is what makes them slow
         * to locate the culprit tier in Fig 20.
         */
        unsigned maxScaleOutsPerRound = 0;
    };

    /**
     * @param pipeline telemetry source, started before the scaler
     *                 (must outlive it)
     * @param placer   returns the server to place each new instance on
     */
    AutoScaler(Pipeline &pipeline, Config config,
               std::function<cpu::Server &()> placer);

    /** Scheduled decisions hold `this`. */
    AutoScaler(const AutoScaler &) = delete;
    AutoScaler &operator=(const AutoScaler &) = delete;

    /** Watch a tier (untracked tiers never scale). */
    void watch(const std::string &service);

    /** Watch every non-stateful tier of the app. */
    void watchAllStateless();

    /** Decide at every later interval boundary of the store. */
    void start();

    /** All scale-outs performed, in time order. */
    const std::vector<ScaleEvent> &events() const { return events_; }

  private:
    void decideOnce();

    Pipeline &pipeline_;
    Config config_;
    std::function<cpu::Server &()> placer_;
    std::vector<std::string> watched_;
    std::unordered_map<std::string, Tick> lastScale_;
    std::vector<ScaleEvent> events_;
    bool started_ = false;
};

} // namespace uqsim::obs

#endif // UQSIM_OBS_AUTOSCALER_HH
