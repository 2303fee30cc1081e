#include "cpu/server.hh"

#include <algorithm>
#include <utility>

#include "core/logging.hh"
#include "cpu/microarch.hh"

namespace uqsim::cpu {

namespace {

/**
 * Static profile of the kernel TCP/IP path every RPC hop runs on both
 * ends: moderate footprint, fully kernel-mode, memory-touching code.
 */
const ServiceProfile kKernelTcp{.name = "kernel-tcp",
                                .codeFootprintKb = 600.0,
                                .branchEntropy = 0.20,
                                .memIntensity = 0.40,
                                .kernelShare = 1.0,
                                .libShare = 0.0};

} // namespace

Server::Server(SimContext ctx, unsigned id, CoreModel model)
    : ctx_(ctx), id_(id), model_(std::move(model)),
      kernelIpc_(MicroarchModel::effectiveIpc(kKernelTcp, model_)),
      freqMhz_(model_.nominalFreqMhz)
{
    if (model_.coresPerServer == 0)
        fatal("Server with zero cores");
}

Tick
Server::taskDuration(const Task &t) const
{
    // cycles / (ipc * freq) with freq in cycles-per-ns (GHz).
    const double freq_ghz = freqMhz_ / 1000.0;
    const double ns = static_cast<double>(t.cycles) /
                      std::max(1e-9, t.ipc * freq_ghz) * slowFactor_;
    return std::max<Tick>(1, static_cast<Tick>(ns));
}

void
Server::execute(Cycles cycles, double ipc, TaskDone done)
{
    if (ipc <= 0.0)
        panic("Server::execute with non-positive IPC");
    Task task{cycles, ipc, std::move(done)};
    if (busyCores_ < numCores()) {
        startTask(std::move(task));
    } else {
        pending_.push_back(std::move(task));
    }
}

void
Server::startTask(Task task)
{
    ++busyCores_;
    utilization_.update(ctx_.now(),
                        static_cast<double>(busyCores_) / numCores());
    const Tick duration = taskDuration(task);
    const std::uint32_t slot =
        running_.park(Running{std::move(task.done), duration});
    ctx_.schedule(duration, [this, slot]() { onTaskDone(slot); });
}

void
Server::onTaskDone(std::uint32_t slot)
{
    Running task = running_.take(slot);
    const Tick busy_time = task.duration;
    --busyCores_;
    totalBusyTime_ += busy_time;
    ++tasksCompleted_;
    if (!pending_.empty()) {
        Task next = std::move(pending_.front());
        pending_.pop_front();
        startTask(std::move(next));
    } else {
        utilization_.update(ctx_.now(),
                            static_cast<double>(busyCores_) / numCores());
    }
    if (task.done)
        task.done(busy_time);
}

void
Server::setFrequencyMhz(double mhz)
{
    if (mhz <= 0.0)
        fatal("Server frequency must be positive");
    freqMhz_ = std::max(mhz, model_.minFreqMhz);
}

void
Server::setSlowFactor(double factor)
{
    if (factor < 1.0)
        fatal("Server slow factor must be >= 1.0");
    slowFactor_ = factor;
}

double
Server::utilizationAvg() const
{
    return utilization_.average(ctx_.now());
}

void
Server::statReset()
{
    utilization_.reset(ctx_.now());
    totalBusyTime_ = 0;
    tasksCompleted_ = 0;
}

Server &
Cluster::addServer(const CoreModel &model)
{
    servers_.push_back(std::make_unique<Server>(
        ctx_, static_cast<unsigned>(servers_.size()), model));
    return *servers_.back();
}

void
Cluster::addServers(unsigned n, const CoreModel &model)
{
    for (unsigned i = 0; i < n; ++i)
        addServer(model);
}

Server &
Cluster::server(unsigned id)
{
    if (id >= servers_.size())
        panic(strCat("Cluster::server(", id, ") out of range"));
    return *servers_[id];
}

Server &
Cluster::nextServerRoundRobin()
{
    if (servers_.empty())
        panic("Cluster::nextServerRoundRobin on empty cluster");
    Server &s = *servers_[rrCursor_ % servers_.size()];
    ++rrCursor_;
    return s;
}

void
Cluster::injectSlowServers(unsigned count, double factor)
{
    count = std::min<unsigned>(count,
                               static_cast<unsigned>(servers_.size()));
    for (unsigned i = 0; i < count; ++i)
        servers_[i]->setSlowFactor(factor);
}

void
Cluster::clearSlowServers()
{
    for (auto &s : servers_)
        s->setSlowFactor(1.0);
}

void
Cluster::setAllFrequenciesMhz(double mhz)
{
    for (auto &s : servers_)
        s->setFrequencyMhz(mhz);
}

double
Cluster::averageUtilization() const
{
    if (servers_.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &s : servers_)
        total += s->utilizationAvg();
    return total / static_cast<double>(servers_.size());
}

void
Cluster::statResetAll()
{
    for (auto &s : servers_)
        s->statReset();
}

} // namespace uqsim::cpu
