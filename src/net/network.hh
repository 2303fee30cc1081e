/**
 * @file
 * Datacenter/edge network fabric model.
 *
 * Topology is the paper's: every server hangs off a top-of-rack switch
 * with a 10GbE NIC. Each server has a transmit queue modelled as a
 * busy-cursor link: serialization delay is bytes/bandwidth and messages
 * queue behind each other, so "long queues build up in the NICs" at
 * high load (Sec 5) emerges naturally. Edge devices (drones) attach
 * over a high-latency, low-bandwidth wireless link instead.
 *
 * Kernel TCP processing cost is *not* part of this module's delay: it
 * is CPU work, charged to the sending/receiving server by the RPC
 * layer using the cost models defined here (TcpCostModel), or bypassed
 * by the FPGA offload (FpgaOffloadModel, Fig 16).
 */

#ifndef UQSIM_NET_NETWORK_HH
#define UQSIM_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/callback.hh"
#include "core/distributions.hh"
#include "core/pool.hh"
#include "core/rng.hh"
#include "core/sim_context.hh"
#include "core/types.hh"

namespace uqsim::net {

/**
 * Cycle cost of kernel TCP/IP processing per message, charged to the
 * host CPU by the RPC layer. Derived from the paper's observation that
 * network processing reaches ~36% of execution time for microservices.
 */
struct TcpCostModel
{
    /** Per-message send-side cycles (syscall, segmentation, stack). */
    Cycles sendBaseCycles = 5000;

    /** Per-message receive-side cycles (interrupt, reassembly, wakeup). */
    Cycles recvBaseCycles = 6500;

    /** Copy/checksum cycles per payload byte (TSO/GSO-assisted). */
    double perByteCycles = 0.08;

    /** Total send-side cycles for a message of @p size bytes. */
    Cycles
    sendCost(Bytes size) const
    {
        return sendBaseCycles +
               static_cast<Cycles>(perByteCycles * static_cast<double>(size));
    }

    /** Total receive-side cycles for a message of @p size bytes. */
    Cycles
    recvCost(Bytes size) const
    {
        return recvBaseCycles +
               static_cast<Cycles>(perByteCycles * static_cast<double>(size));
    }

    /** Linux kernel stack defaults. */
    static TcpCostModel native() { return TcpCostModel{}; }
};

/**
 * Bump-in-the-wire FPGA TCP offload (Fig 16): the Virtex-7 sits between
 * the NIC and the ToR and terminates TCP, leaving the host only a
 * doorbell/DMA interaction.
 */
struct FpgaOffloadModel
{
    /** Whether the offload path is active. */
    bool enabled = false;

    /** Residual host cycles per message (DMA descriptor + doorbell). */
    Cycles hostSendCycles = 150;
    Cycles hostRecvCycles = 150;

    /** FPGA pipeline latency added per direction (bump-in-the-wire). */
    Tick pipelineLatency = 300; // 300ns

    /** Disabled (native kernel TCP). */
    static FpgaOffloadModel off() { return FpgaOffloadModel{}; }

    /** Enabled with the defaults above. */
    static FpgaOffloadModel
    on()
    {
        FpgaOffloadModel m;
        m.enabled = true;
        return m;
    }
};

/** Static configuration of the fabric. */
struct NetworkConfig
{
    /** One-way wire + ToR switch latency between servers. */
    Tick wireLatency = 10 * kTicksPerUs;

    /** Loopback (same-server, inter-container IPC) latency. */
    Tick loopbackLatency = 5 * kTicksPerUs;

    /** NIC line rate in Gbit/s. */
    double linkGbps = 10.0;

    /**
     * Default wireless latency for edge devices (one way): the drones
     * talk to the router over tens of meters with contention, so
     * latencies are far above datacenter wires (Sec 3.8, Fig 9).
     */
    Tick wirelessLatency = 35 * kTicksPerMs;

    /** Wireless latency jitter: multiplier sampled per message. */
    double wirelessJitterSigma = 0.40;

    /** Wireless bandwidth in Gbit/s (802.11n-class). */
    double wirelessGbps = 0.05;
};

/**
 * Delivery callback: receives the in-network delay split into
 * (a) NIC queueing + serialization - which the paper counts as network
 * *processing* time (queues building in the NICs at high load) - and
 * (b) pure wire/switch propagation, which is latency but not work.
 */
using DeliverFn = Callback<void(Tick queueing_tx, Tick propagation)>;

/**
 * The fabric connecting all servers.
 */
class Network
{
  public:
    Network(SimContext ctx, NetworkConfig config, Rng rng);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const NetworkConfig &config() const { return config_; }

    /**
     * Mark @p server_id as an edge device reached over the wireless
     * link instead of the ToR.
     */
    void attachWireless(unsigned server_id);

    /** @return true if the server is attached over wireless. */
    bool isWireless(unsigned server_id) const;

    /**
     * Send @p size payload bytes from @p src to @p dst; @p deliver
     * fires at the destination when the last byte lands.
     */
    void send(unsigned src, unsigned dst, Bytes size, DeliverFn deliver);

    /**
     * Account for one leg of a cross-shard message in a partitioned
     * world: the sender's NIC pays the usual serialization/queueing
     * time, the wire pays `wireLatency`. Returns (queueing_tx,
     * propagation); the caller schedules delivery on the peer shard
     * via `SimContext::postToShard` with their sum as the delay.
     *
     * Unlike send() this never takes the loopback path: the same
     * server id on two shards names two different physical machines,
     * which is also why the engine's conservative lookahead can be
     * exactly `wireLatency`. The drop hook is not consulted (fault
     * schedules are rejected in partition mode), and the message is
     * counted at send time because the receiving shard must not
     * mutate this shard's counters.
     */
    std::pair<Tick, Tick> crossShardDelay(unsigned src, Bytes size);

    /**
     * Fault-injection drop hook, consulted per message *after* the
     * sender's NIC has spent the serialization time (the packet leaves
     * the host and dies in the fabric). Returning true swallows the
     * message: the delivery callback never fires, so recovery is
     * entirely up to the endpoint's timeout/retry machinery. Null (the
     * default) means a perfectly reliable fabric.
     */
    void setDropHook(std::function<bool(unsigned src, unsigned dst)> hook)
    {
        dropHook_ = std::move(hook);
    }

    /** Messages delivered so far. */
    std::uint64_t messagesDelivered() const { return messages_; }

    /** Payload bytes delivered so far. */
    Bytes bytesDelivered() const { return bytes_; }

    /** Messages swallowed by the drop hook (partitions, packet loss). */
    std::uint64_t messagesDropped() const { return dropped_; }

  private:
    struct TxQueue
    {
        Tick busyUntil = 0;
    };

    /** A message on the wire: its delivery waits here, not in the event. */
    struct InFlight
    {
        DeliverFn deliver;
        Bytes size = 0;
        Tick queueingTx = 0;
        Tick propagation = 0;
    };

    /** Serialization time of @p size bytes at @p gbps. */
    static Tick serializationDelay(Bytes size, double gbps);

    /**
     * Propagation (and jitter) between two endpoints, given whether
     * each end is wireless (at least one is).
     */
    Tick wirelessPropagation(bool src_wireless, bool dst_wireless);

    TxQueue &txQueue(unsigned server_id);

    /** Deliver the message parked under @p slot. */
    void land(std::uint32_t slot);

    SimContext ctx_;
    NetworkConfig config_;
    Rng rng_;
    /** NIC transmit queues, indexed by server id (grown on use). */
    std::vector<TxQueue> txQueues_;
    /** Wireless flags, indexed by server id (grown on attach). */
    std::vector<bool> wireless_;
    /** Messages in flight, parked by the id their landing event holds. */
    SlotTable<InFlight> inflight_;
    std::function<bool(unsigned, unsigned)> dropHook_;
    std::uint64_t messages_ = 0;
    Bytes bytes_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace uqsim::net

#endif // UQSIM_NET_NETWORK_HH
