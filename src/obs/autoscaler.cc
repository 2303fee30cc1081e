#include "obs/autoscaler.hh"

#include "core/logging.hh"

namespace uqsim::obs {

AutoScaler::AutoScaler(Pipeline &pipeline, Config config,
                       std::function<cpu::Server &()> placer)
    : pipeline_(pipeline), config_(config), placer_(std::move(placer))
{
    if (!placer_)
        fatal("AutoScaler needs a placement function");
}

void
AutoScaler::watch(const std::string &service)
{
    if (!pipeline_.app().hasService(service))
        fatal(strCat("AutoScaler::watch unknown service '", service, "'"));
    watched_.push_back(service);
}

void
AutoScaler::watchAllStateless()
{
    for (const service::Microservice *svc : pipeline_.app().services()) {
        const auto kind = svc->def().kind;
        if (kind == service::ServiceKind::Stateless ||
            kind == service::ServiceKind::Frontend)
            watched_.push_back(svc->name());
    }
}

void
AutoScaler::start()
{
    if (started_)
        return;
    started_ = true;
    // First decision at the next boundary, so every decision reads the
    // sample the pipeline closed at that same instant.
    const Tick interval = pipeline_.store().interval();
    const Tick now = pipeline_.app().ctx().now();
    pipeline_.app().ctx().scheduleAt(now - now % interval + interval,
                                     [this]() { decideOnce(); });
}

void
AutoScaler::decideOnce()
{
    service::App &app = pipeline_.app();
    const Tick now = app.ctx().now();
    unsigned scaled_this_round = 0;
    for (const std::string &name : watched_) {
        if (config_.maxScaleOutsPerRound &&
            scaled_this_round >= config_.maxScaleOutsPerRound)
            break;
        const Series *series = pipeline_.store().find(name);
        if (!series || series->size() == 0)
            continue;
        const double occupancy = series->latest().occupancy;
        if (occupancy < kThreshold)
            continue;
        const auto last = lastScale_.find(name);
        if (last != lastScale_.end() && now - last->second < config_.cooldown)
            continue;

        // Provision the instance now; it begins serving after the
        // startup (container pull + warmup) delay.
        service::Microservice &svc = app.service(name);
        service::Instance &inst = svc.addInstance(placer_());
        inst.setActive(false);
        app.ctx().schedule(config_.startupDelay,
                           [&inst]() { inst.setActive(true); });
        lastScale_[name] = now;
        ++scaled_this_round;
        app.metrics().counter("autoscaler.scale_outs").inc();
        events_.push_back(ScaleEvent{
            now, name, static_cast<unsigned>(svc.instances().size()),
            occupancy});
    }
    app.ctx().schedule(pipeline_.store().interval(),
                       [this]() { decideOnce(); });
}

} // namespace uqsim::obs
