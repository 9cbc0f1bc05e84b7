#include "src/net/link.h"

#include <algorithm>
#include <utility>

#include "src/base/bytes.h"
#include "src/base/logging.h"

namespace crnet {

Link::Link(crsim::Engine& engine, const Options& options)
    : engine_(&engine),
      options_(options),
      impairments_(options.impairments),
      rng_(options.impairment_seed) {
  CRAS_CHECK(options.bandwidth_bytes_per_sec > 0);
  CRAS_CHECK(options.propagation_delay >= 0);
  CRAS_CHECK(impairments_.bandwidth_derating >= 1.0);
}

Link::Link(crsim::Engine& engine) : Link(engine, Options{}) {}

bool Link::Send(std::int64_t bytes, std::function<void()> deliver) {
  CRAS_CHECK(bytes > 0);
  if (options_.queue_limit != 0 && queue_.size() >= options_.queue_limit) {
    ++stats_.packets_dropped;
    ++stats_.tx_queue_drops;
    if (obs_ != nullptr) {
      obs_->tx_queue_drops->Add();
    }
    return false;
  }
  ++stats_.packets_sent;
  stats_.bytes_sent += bytes;
  if (obs_ != nullptr) {
    obs_->packets_sent->Add();
  }
  queue_.push_back(Packet{bytes, 0, std::move(deliver), {}});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  if (!transmitting_) {
    StartTransmit();
  }
  return true;
}

bool Link::Multicast(std::int64_t bytes, std::size_t receivers,
                     std::function<void(std::size_t)> deliver) {
  CRAS_CHECK(bytes > 0);
  CRAS_CHECK(receivers > 0);
  CRAS_CHECK(deliver != nullptr);
  if (options_.queue_limit != 0 && queue_.size() >= options_.queue_limit) {
    ++stats_.packets_dropped;
    ++stats_.tx_queue_drops;
    if (obs_ != nullptr) {
      obs_->tx_queue_drops->Add();
    }
    return false;
  }
  ++stats_.mcast_packets_sent;
  stats_.bytes_sent += bytes;
  queue_.push_back(Packet{bytes, receivers, nullptr, std::move(deliver)});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  if (!transmitting_) {
    StartTransmit();
  }
  return true;
}

void Link::SetImpairments(const LinkImpairments& impairments) {
  CRAS_CHECK(impairments.bandwidth_derating >= 1.0);
  impairments_ = impairments;
}

void Link::SetLoss(double probability) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  impairments_.loss_probability = probability;
  impairments_.gilbert_elliott = false;
}

void Link::SetBurstLoss(double p_enter_bad, double p_exit_bad, double loss_bad) {
  CRAS_CHECK(p_enter_bad >= 0.0 && p_enter_bad <= 1.0);
  CRAS_CHECK(p_exit_bad > 0.0 && p_exit_bad <= 1.0);
  CRAS_CHECK(loss_bad >= 0.0 && loss_bad <= 1.0);
  impairments_.gilbert_elliott = true;
  impairments_.ge_p_enter_bad = p_enter_bad;
  impairments_.ge_p_exit_bad = p_exit_bad;
  impairments_.ge_loss_bad = loss_bad;
}

void Link::SetJitter(Duration jitter) {
  CRAS_CHECK(jitter >= 0);
  impairments_.jitter = jitter;
}

void Link::SetReordering(double probability, Duration delay) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  CRAS_CHECK(delay >= 0);
  impairments_.reorder_probability = probability;
  impairments_.reorder_delay = delay;
}

void Link::SetDuplication(double probability, Duration delay) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  CRAS_CHECK(delay >= 0);
  impairments_.duplicate_probability = probability;
  impairments_.duplicate_delay = delay;
}

void Link::SetBandwidthDerating(double factor) {
  CRAS_CHECK(factor >= 1.0);
  impairments_.bandwidth_derating = factor;
}

void Link::ClearImpairments() {
  impairments_ = LinkImpairments{};
  ge_in_bad_state_ = false;
}

void Link::StepLossState() {
  if (!impairments_.gilbert_elliott) {
    return;
  }
  if (ge_in_bad_state_) {
    if (rng_.NextDouble() < impairments_.ge_p_exit_bad) {
      ge_in_bad_state_ = false;
    }
  } else {
    if (rng_.NextDouble() < impairments_.ge_p_enter_bad) {
      ge_in_bad_state_ = true;
    }
  }
}

bool Link::DrawLossNow() {
  if (impairments_.gilbert_elliott) {
    const double p = ge_in_bad_state_ ? impairments_.ge_loss_bad : impairments_.ge_loss_good;
    return p > 0.0 && rng_.NextDouble() < p;
  }
  return impairments_.loss_probability > 0.0 &&
         rng_.NextDouble() < impairments_.loss_probability;
}

bool Link::DrawWireLoss() {
  // Step the chain, then draw against the state the packet sees.
  StepLossState();
  return DrawLossNow();
}

Duration Link::DrawExtraDelay() {
  Duration extra = 0;
  if (impairments_.jitter > 0) {
    extra += static_cast<Duration>(rng_.NextBelow(
        static_cast<std::uint64_t>(impairments_.jitter) + 1));
  }
  if (impairments_.reorder_probability > 0.0 &&
      rng_.NextDouble() < impairments_.reorder_probability) {
    extra += impairments_.reorder_delay;
  }
  return extra;
}

void Link::StartTransmit() {
  CRAS_CHECK(!transmitting_);
  if (queue_.empty()) {
    return;
  }
  transmitting_ = true;
  Packet packet = std::move(queue_.front());
  queue_.pop_front();
  const double rate = options_.bandwidth_bytes_per_sec / impairments_.bandwidth_derating;
  const Duration wire_time =
      crbase::TransferTime(packet.bytes + options_.per_packet_overhead, rate);
  stats_.busy_time += wire_time;
  // Serialization completes, then the bits propagate. The next packet may
  // begin serializing as soon as this one leaves the interface. Loss and
  // jitter are drawn at serialization end, in send order, so the random
  // sequence is independent of delivery interleaving.
  engine_->ScheduleAfter(wire_time, [this, packet = std::move(packet)]() mutable {
    transmitting_ = false;
    if (packet.receivers > 0) {
      FanOut(std::move(packet));
    } else if (DrawWireLoss()) {
      ++stats_.packets_dropped;
      ++stats_.wire_drops;
      if (obs_ != nullptr) {
        obs_->wire_drops->Add();
      }
    } else {
      DeliverOne(packet.bytes, std::move(packet.deliver));
    }
    StartTransmit();
  });
}

void Link::DeliverOne(std::int64_t bytes, std::function<void()> deliver) {
  // Duplication: the receiver sees the same unicast packet again shortly
  // after the original — drawn here so the copy shares the original's
  // jitter fate and costs no extra wire time (the bits only went out once;
  // the switch replayed them).
  if (impairments_.duplicate_probability > 0.0 &&
      rng_.NextDouble() < impairments_.duplicate_probability) {
    engine_->ScheduleAfter(
        options_.propagation_delay + impairments_.duplicate_delay, [this, deliver] {
          ++stats_.duplicate_deliveries;
          if (deliver) {
            deliver();
          }
        });
  }
  engine_->ScheduleAfter(options_.propagation_delay + DrawExtraDelay(),
                         [this, bytes, deliver = std::move(deliver)] {
                           ++stats_.packets_delivered;
                           stats_.bytes_delivered += bytes;
                           if (obs_ != nullptr) {
                             obs_->packets_delivered->Add();
                             obs_->bytes_delivered->Add(bytes);
                           }
                           if (deliver) {
                             deliver();
                           }
                         });
}

void Link::FanOut(Packet packet) {
  // One serialized packet, N receivers: the shared loss state advances
  // once, then every receiver draws its fate (and jitter) on its own, in
  // receiver order — the same random stream as one event per receiver.
  StepLossState();
  auto copies = std::make_shared<Fanout>();
  copies->bytes = packet.bytes;
  copies->deliver = std::move(packet.fan_out);
  copies->receivers.reserve(packet.receivers);
  arrivals_.clear();
  const Time now = engine_->Now();
  for (std::size_t i = 0; i < packet.receivers; ++i) {
    if (DrawLossNow()) {
      ++stats_.mcast_receiver_drops;
      continue;
    }
    copies->receivers.push_back(i);
    arrivals_.push_back(now + options_.propagation_delay + DrawExtraDelay());
  }
  // One event per run of consecutive surviving copies that land at the same
  // instant. The run's first copy holds the sequence number the copies
  // would have had one by one, and nothing else can be scheduled between
  // them, so they fire exactly where the per-copy events would have.
  const std::size_t n = arrivals_.size();
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    end = begin + 1;
    while (end < n && arrivals_[end] == arrivals_[begin]) {
      ++end;
    }
    engine_->ScheduleAt(arrivals_[begin], [this, copies, begin, end] {
      for (std::size_t k = begin; k < end; ++k) {
        ++stats_.mcast_deliveries;
        stats_.bytes_delivered += copies->bytes;
        if (obs_ != nullptr) {
          obs_->bytes_delivered->Add(copies->bytes);
        }
        copies->deliver(copies->receivers[k]);
      }
    });
  }
}

void Link::AttachObs(crobs::Hub* hub, const std::string& name) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"link", name}};
  obs->packets_sent = metrics.GetCounter("link.packets_sent", labels);
  obs->packets_delivered = metrics.GetCounter("link.packets_delivered", labels);
  obs->bytes_delivered = metrics.GetCounter("link.bytes_delivered", labels);
  obs->tx_queue_drops = metrics.GetCounter("link.tx_queue_drops", labels);
  obs->wire_drops = metrics.GetCounter("link.wire_drops", labels);
  obs_ = std::move(obs);
}

}  // namespace crnet
