// A point-to-point network link.
//
// Models the paper's 10 Mb/s Ethernet between the QtPlay server and client
// (Figure 11): packets serialize onto the wire at the link bandwidth, then
// arrive after the propagation delay. Transmission is FIFO at the interface;
// an optional queue bound forces transmit-queue drops.
//
// Beyond the paper's perfect segment, the link carries a scriptable
// *impairment model* (driven live by crfault link events) for lossy-network
// experiments:
//
//   loss        — i.i.d. per-packet wire loss, or a Gilbert–Elliott
//                 two-state Markov chain for bursty loss (good/bad states
//                 with per-state loss probabilities, stepped once per
//                 packet);
//   jitter      — uniform extra propagation delay in [0, jitter]; because
//                 every packet propagates independently, jitter larger than
//                 the serialization gap reorders deliveries;
//   reordering  — explicit tail-holding: with probability p a packet is
//                 held `reorder_delay` beyond its normal arrival;
//   derating    — bandwidth divided by a factor (a congested or
//                 renegotiated segment).
//
// A wire-lost packet still consumed its serialization time — the bits went
// out, nobody heard them — so loss wastes exactly the wire time the sender
// paid, which is what makes deadline-aware retransmission worth modelling.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/time_units.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"

namespace crnet {

using crbase::Duration;
using crbase::Time;

struct LinkStats {
  std::int64_t packets_sent = 0;
  std::int64_t packets_delivered = 0;
  // Total drops = tx_queue_drops + wire_drops. Kept as the sum so existing
  // "did anything drop" call sites keep working.
  std::int64_t packets_dropped = 0;
  std::int64_t tx_queue_drops = 0;  // refused at Send(): transmit queue full
  std::int64_t wire_drops = 0;      // serialized, then lost on the wire
  std::int64_t bytes_delivered = 0;
  // Payload bytes accepted for serialization — paid once per transmission,
  // unicast or multicast, so this is the sender-side cost a fan-out saves.
  std::int64_t bytes_sent = 0;
  // Multicast fan-out. A multicast transmission serializes once (one entry
  // in busy_time, one bytes_sent charge) and then every attached receiver
  // draws its own wire loss: deliveries/drops count per receiver. Kept
  // apart from the unicast counters so packets_sent = delivered + dropped
  // keeps holding for unicast traffic.
  std::int64_t mcast_packets_sent = 0;
  std::int64_t mcast_deliveries = 0;
  std::int64_t mcast_receiver_drops = 0;
  // Extra deliveries manufactured by the duplication impairment (not
  // included in packets_delivered, so sent = delivered + dropped holds).
  std::int64_t duplicate_deliveries = 0;
  Duration busy_time = 0;
  std::size_t max_queue_depth = 0;
};

// Scriptable link misbehaviour. All fields off by default; a
// default-constructed value means a perfect link.
struct LinkImpairments {
  // i.i.d. per-packet wire loss probability (ignored when gilbert_elliott).
  double loss_probability = 0.0;
  // Gilbert–Elliott burst loss: the chain steps once per serialized packet;
  // the packet is then lost with the current state's probability.
  bool gilbert_elliott = false;
  double ge_p_enter_bad = 0.0;  // P(good -> bad) per packet
  double ge_p_exit_bad = 0.0;   // P(bad -> good) per packet
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;
  // Uniform extra propagation delay in [0, jitter].
  Duration jitter = 0;
  // With probability reorder_probability, a packet is additionally held
  // reorder_delay past its (jittered) arrival time.
  double reorder_probability = 0.0;
  Duration reorder_delay = 0;
  // With probability duplicate_probability, a delivered unicast packet is
  // delivered a second time, `duplicate_delay` after the original — a
  // misbehaving switch or a retransmission the first copy of which was not
  // actually lost. The idempotency hazard for control RPCs.
  double duplicate_probability = 0.0;
  Duration duplicate_delay = crbase::Milliseconds(2);
  // Serialization bandwidth divided by this factor (>= 1).
  double bandwidth_derating = 1.0;

  bool perfect() const {
    return loss_probability == 0.0 && !gilbert_elliott && jitter == 0 &&
           reorder_probability == 0.0 && duplicate_probability == 0.0 &&
           bandwidth_derating == 1.0;
  }
};

class Link {
 public:
  struct Options {
    double bandwidth_bytes_per_sec = 10e6 / 8.0;  // 10 Mb/s Ethernet
    Duration propagation_delay = crbase::Microseconds(500);
    // Per-packet framing overhead (headers, interframe gap) in bytes.
    std::int64_t per_packet_overhead = 64;
    // Transmit queue bound in packets; 0 = unbounded.
    std::size_t queue_limit = 0;
    // Impairments active from construction (scripted changes come later
    // through the setters / crfault).
    LinkImpairments impairments;
    // Seed for the loss/jitter draws; every run is reproducible.
    std::uint64_t impairment_seed = 0x6c696e6bULL;  // "link"
  };

  Link(crsim::Engine& engine, const Options& options);
  Link(crsim::Engine& engine);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Queues `bytes` for transmission; `deliver` fires at the receiver once
  // the packet has fully serialized and propagated. Returns false (and
  // counts a tx-queue drop) if the transmit queue is full. A wire-lost
  // packet's `deliver` never fires.
  bool Send(std::int64_t bytes, std::function<void()> deliver);

  // Multicast: one serialized transmission fanned out to `receivers`
  // receivers of a group address. Wire time is paid once; at serialization
  // end the loss model steps once (the shared-medium burst state advances
  // per packet) and then *each* receiver, in index order, draws its own
  // loss and jitter independently — one multicast packet can reach some
  // receivers and miss others. `deliver(i)` fires when receiver i's copy
  // lands; a receiver whose draw loses the packet never sees it. Copies
  // landing at the same instant share one engine event (see
  // DESIGN.md "Link-layer fan-out"), in receiver order.
  bool Multicast(std::int64_t bytes, std::size_t receivers,
                 std::function<void(std::size_t)> deliver);

  // ---- impairment control (live; crfault's link events land here) ----
  void SetImpairments(const LinkImpairments& impairments);
  void SetLoss(double probability);
  void SetBurstLoss(double p_enter_bad, double p_exit_bad, double loss_bad);
  void SetJitter(Duration jitter);
  void SetReordering(double probability, Duration delay);
  // Duplicated *deliveries*: the receiver sees some unicast packets twice.
  void SetDuplication(double probability, Duration delay = crbase::Milliseconds(2));
  void SetBandwidthDerating(double factor);
  // Back to a perfect link (the Gilbert–Elliott chain also resets to good).
  void ClearImpairments();
  const LinkImpairments& impairments() const { return impairments_; }

  const LinkStats& stats() const { return stats_; }
  std::size_t queue_depth() const { return queue_.size() + (transmitting_ ? 1 : 0); }
  const Options& options() const { return options_; }

  // Offered-load utilization over the life of the link.
  double Utilization() const {
    return engine_->Now() == 0
               ? 0.0
               : static_cast<double>(stats_.busy_time) / static_cast<double>(engine_->Now());
  }

  // Registers the link's counters keyed {link: name} — sent/delivered
  // bytes and the split drop counters — mirroring the device/driver stats.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  struct Packet {
    std::int64_t bytes;
    std::size_t receivers;                     // 0 = unicast
    std::function<void()> deliver;             // unicast receiver
    std::function<void(std::size_t)> fan_out;  // multicast receiver i
  };
  // The copies of one multicast packet that survived the wire, shared by
  // the packet's arrival events.
  struct Fanout {
    std::int64_t bytes = 0;
    std::function<void(std::size_t)> deliver;
    std::vector<std::size_t> receivers;  // in receiver order
  };
  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* packets_sent = nullptr;
    crobs::Counter* packets_delivered = nullptr;
    crobs::Counter* bytes_delivered = nullptr;
    crobs::Counter* tx_queue_drops = nullptr;
    crobs::Counter* wire_drops = nullptr;
  };

  void StartTransmit();
  void DeliverOne(std::int64_t bytes, std::function<void()> deliver);
  // Serialization end of a multicast packet: draws every receiver's fate
  // and schedules one arrival event per run of same-instant copies.
  void FanOut(Packet packet);
  // Steps the loss model one packet; true = this packet dies on the wire.
  bool DrawWireLoss();
  // Advances the Gilbert–Elliott chain one packet (no-op for i.i.d. loss).
  void StepLossState();
  // Draws a loss against the *current* state without advancing it — the
  // per-receiver draw of a multicast delivery.
  bool DrawLossNow();
  // Extra delivery delay past the nominal propagation (jitter + reorder).
  Duration DrawExtraDelay();

  crsim::Engine* engine_;
  Options options_;
  LinkImpairments impairments_;
  crbase::Rng rng_;
  bool ge_in_bad_state_ = false;
  std::deque<Packet> queue_;
  std::vector<Time> arrivals_;  // reused by FanOut: arrival time per surviving copy
  bool transmitting_ = false;
  LinkStats stats_;
  std::unique_ptr<ObsState> obs_;
};

}  // namespace crnet

#endif  // SRC_NET_LINK_H_
