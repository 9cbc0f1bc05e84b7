// Lossy-network survival: link impairments, scripted link faults, the NPS
// reliability layer (explicit reassembly, NAK repair, deadline give-up),
// and session leases end to end.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"
#include "src/net/stats_query.h"

namespace crnet {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

Link::Options FastLink() {
  Link::Options options;
  options.bandwidth_bytes_per_sec = 10e6 / 8.0;
  options.propagation_delay = Milliseconds(1);
  options.per_packet_overhead = 0;
  return options;
}

// ---------------------------------------------------------------------------
// Link impairments.

TEST(LinkImpairments, WireLossSplitFromQueueDrops) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.impairments.loss_probability = 1.0;
  Link link(engine, options);
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(link.Send(1250, [&] { ++delivered; }));
  }
  engine.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().wire_drops, 5);
  EXPECT_EQ(link.stats().tx_queue_drops, 0);
  EXPECT_EQ(link.stats().packets_dropped, 5);
  // A wire-lost packet still burned its serialization time.
  EXPECT_EQ(link.stats().busy_time, 5 * Milliseconds(1));
}

TEST(LinkImpairments, QueueDropsSplitFromWireLoss) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.queue_limit = 2;
  Link link(engine, options);
  for (int i = 0; i < 6; ++i) {
    link.Send(1250, nullptr);
  }
  engine.Run();
  EXPECT_EQ(link.stats().tx_queue_drops, 3);
  EXPECT_EQ(link.stats().wire_drops, 0);
  EXPECT_EQ(link.stats().packets_dropped,
            link.stats().tx_queue_drops + link.stats().wire_drops);
}

TEST(LinkImpairments, IidLossRateMatchesProbability) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  link.SetLoss(0.1);
  const int n = 10000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) {
    link.Send(125, [&] { ++delivered; });
  }
  engine.Run();
  const double loss = 1.0 - static_cast<double>(delivered) / n;
  EXPECT_GT(loss, 0.08);
  EXPECT_LT(loss, 0.12);
  EXPECT_EQ(link.stats().wire_drops, n - delivered);
}

TEST(LinkImpairments, GilbertElliottLossIsBursty) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  // Stationary bad-state share 0.05/(0.05+0.5) = 9.1%; mean sojourn in bad
  // (= mean loss-burst length, since loss_bad = 1) is 1/0.5 = 2 packets.
  link.SetBurstLoss(/*p_enter_bad=*/0.05, /*p_exit_bad=*/0.5, /*loss_bad=*/1.0);
  const int n = 10000;
  std::vector<bool> delivered(n, false);
  for (int i = 0; i < n; ++i) {
    link.Send(125, [&delivered, i] { delivered[static_cast<std::size_t>(i)] = true; });
  }
  engine.Run();

  int lost = 0;
  int bursts = 0;
  bool in_burst = false;
  for (bool ok : delivered) {
    if (!ok) {
      ++lost;
      if (!in_burst) {
        ++bursts;
        in_burst = true;
      }
    } else {
      in_burst = false;
    }
  }
  const double loss_rate = static_cast<double>(lost) / n;
  EXPECT_GT(loss_rate, 0.05);
  EXPECT_LT(loss_rate, 0.14);
  // Burstiness: mean run length well above the ~1.1 an i.i.d. process at
  // this rate would produce.
  ASSERT_GT(bursts, 0);
  const double mean_burst = static_cast<double>(lost) / bursts;
  EXPECT_GT(mean_burst, 1.4);
  EXPECT_LT(mean_burst, 3.0);
}

TEST(LinkImpairments, JitterReordersIndependentPropagation) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.impairments.jitter = Milliseconds(5);
  Link link(engine, options);
  // 125-byte packets serialize in 0.1 ms — far below the 5 ms jitter, so
  // deliveries must overtake each other.
  const int n = 200;
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    link.Send(125, [&order, i] { order.push_back(i); });
  }
  const crbase::Time start = engine.Now();
  engine.Run();
  ASSERT_EQ(static_cast<int>(order.size()), n);  // jitter never loses packets
  int inversions = 0;
  for (int i = 1; i < n; ++i) {
    if (order[static_cast<std::size_t>(i)] < order[static_cast<std::size_t>(i - 1)]) {
      ++inversions;
    }
  }
  EXPECT_GT(inversions, 0);
  // Last possible arrival: all serialization + propagation + max jitter.
  EXPECT_LE(engine.Now() - start,
            n * crbase::Microseconds(100) + Milliseconds(1) + Milliseconds(5));
}

TEST(LinkImpairments, BandwidthDeratingStretchesWireTime) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  link.SetBandwidthDerating(2.0);
  crbase::Time delivered_at = -1;
  // 1250 bytes at 1.25 MB/s would take 1 ms; derated by 2 it takes 2 ms.
  link.Send(1250, [&] { delivered_at = engine.Now(); });
  engine.Run();
  EXPECT_EQ(delivered_at, Milliseconds(2) + Milliseconds(1));
}

// ---------------------------------------------------------------------------
// Scripted link faults.

TEST(LinkFaults, PlanDrivesImpairmentsOverTime) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  crfault::FaultPlan plan;
  plan.LinkLoss(Milliseconds(10), 0.25)
      .LinkJitter(Milliseconds(20), Milliseconds(3), 0.1, Milliseconds(8))
      .LinkDerate(Milliseconds(30), 4.0)
      .LinkRecover(Milliseconds(40));
  crfault::FaultInjector injector(engine, link, plan);
  injector.Arm();

  engine.RunUntil(Milliseconds(15));
  EXPECT_EQ(link.impairments().loss_probability, 0.25);
  engine.RunUntil(Milliseconds(25));
  EXPECT_EQ(link.impairments().jitter, Milliseconds(3));
  EXPECT_EQ(link.impairments().reorder_probability, 0.1);
  EXPECT_EQ(link.impairments().reorder_delay, Milliseconds(8));
  engine.RunUntil(Milliseconds(35));
  EXPECT_EQ(link.impairments().bandwidth_derating, 4.0);
  engine.RunUntil(Milliseconds(45));
  EXPECT_TRUE(link.impairments().perfect());
  EXPECT_EQ(injector.events_fired(), 4);
}

TEST(LinkFaults, BurstLossEventSwitchesToGilbertElliott) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  crfault::FaultPlan plan;
  plan.LinkBurstLoss(Milliseconds(5), 0.02, 0.4, 0.9);
  crfault::FaultInjector injector(engine, link, plan);
  injector.Arm();
  engine.RunUntil(Milliseconds(10));
  EXPECT_TRUE(link.impairments().gilbert_elliott);
  EXPECT_EQ(link.impairments().ge_p_enter_bad, 0.02);
  EXPECT_EQ(link.impairments().ge_p_exit_bad, 0.4);
  EXPECT_EQ(link.impairments().ge_loss_bad, 0.9);
}

TEST(LinkFaults, MixedPlanTargetsVolumeAndLink) {
  crsim::Engine engine;
  crvol::VolumeOptions volume_options;
  volume_options.disks = 2;
  crvol::StripedVolume volume(engine, volume_options);
  Link link(engine, FastLink());
  crfault::FaultPlan plan;
  plan.FailStop(Milliseconds(10), 1).LinkLoss(Milliseconds(20), 0.5);
  crfault::FaultInjector injector(engine, &volume, &link, plan);
  injector.Arm();
  engine.RunUntil(Milliseconds(30));
  EXPECT_EQ(volume.member_state(1), crvol::MemberState::kFailed);
  EXPECT_EQ(link.impairments().loss_probability, 0.5);
}

TEST(LinkFaults, DestroyedInjectorFiresNoEvents) {
  // Inject, destroy early, run the engine: nothing may fire.
  crsim::Engine engine;
  Link link(engine, FastLink());
  {
    crfault::FaultPlan plan;
    plan.LinkLoss(Milliseconds(50), 1.0).LinkDerate(Milliseconds(60), 8.0);
    crfault::FaultInjector injector(engine, link, plan);
    injector.Arm();
  }
  engine.RunUntil(Milliseconds(100));
  EXPECT_TRUE(link.impairments().perfect());
  // And the link still works.
  int delivered = 0;
  link.Send(1250, [&] { ++delivered; });
  engine.Run();
  EXPECT_EQ(delivered, 1);
}

// ---------------------------------------------------------------------------
// NPS reassembly (direct OnFragment injection — no link in the loop).

struct RxRig {
  crrt::Kernel kernel{crrt::Kernel::Options{}};
  NpsReceiver receiver{kernel};

  NpsFragment Frag(std::uint64_t seq, int index, int count) {
    NpsFragment fragment;
    fragment.seq = seq;
    fragment.frag_index = index;
    fragment.frag_count = count;
    fragment.bytes = 8 * crbase::kKiB;
    fragment.chunk.chunk_index = static_cast<std::int64_t>(seq);
    fragment.chunk.timestamp = Milliseconds(100) * static_cast<std::int64_t>(seq);
    fragment.chunk.duration = Milliseconds(100);
    fragment.chunk.size = static_cast<std::int64_t>(count) * 8 * crbase::kKiB;
    return fragment;
  }
};

TEST(NpsReassembly, ReorderedFragmentsAssembleExactlyOnce) {
  RxRig rig;
  // The "final" fragment arrives first: a receiver trusting a
  // final-fragment signal would deliver a chunk with holes.
  rig.receiver.OnFragment(rig.Frag(0, 2, 3));
  EXPECT_EQ(rig.receiver.stats().chunks_received, 0);
  EXPECT_EQ(rig.receiver.incomplete_chunks(), 1u);
  rig.receiver.OnFragment(rig.Frag(0, 0, 3));
  EXPECT_EQ(rig.receiver.stats().chunks_received, 0);
  rig.receiver.OnFragment(rig.Frag(0, 1, 3));
  EXPECT_EQ(rig.receiver.stats().chunks_received, 1);
  EXPECT_EQ(rig.receiver.incomplete_chunks(), 0u);
  EXPECT_EQ(rig.receiver.stats().out_of_order_fragments, 2);
  EXPECT_TRUE(rig.receiver.Get(0).has_value());
}

TEST(NpsReassembly, DuplicateFragmentsAreIgnored) {
  RxRig rig;
  rig.receiver.OnFragment(rig.Frag(0, 0, 2));
  rig.receiver.OnFragment(rig.Frag(0, 0, 2));
  EXPECT_EQ(rig.receiver.stats().duplicate_fragments, 1);
  EXPECT_EQ(rig.receiver.stats().chunks_received, 0);
  rig.receiver.OnFragment(rig.Frag(0, 1, 2));
  EXPECT_EQ(rig.receiver.stats().chunks_received, 1);
  // A late duplicate of a finished chunk is also just counted.
  rig.receiver.OnFragment(rig.Frag(0, 1, 2));
  EXPECT_EQ(rig.receiver.stats().duplicate_fragments, 2);
  EXPECT_EQ(rig.receiver.stats().chunks_received, 1);
  EXPECT_EQ(rig.receiver.stats().bytes_received, 2 * 8 * crbase::kKiB);
}

TEST(NpsReassembly, SequenceGapOpensPlaceholderForLostChunk) {
  RxRig rig;
  rig.receiver.OnFragment(rig.Frag(0, 0, 1));
  // Chunk 1 was wholly lost: its existence is only visible as a gap.
  rig.receiver.OnFragment(rig.Frag(2, 0, 1));
  EXPECT_EQ(rig.receiver.stats().chunks_received, 2);
  EXPECT_EQ(rig.receiver.incomplete_chunks(), 1u);  // the placeholder
}

TEST(NpsReassembly, BestEffortAbandonsIncompleteChunkAfterGrace) {
  // Without a reverse link there is no repair: an incomplete chunk is
  // abandoned once the reordering grace expires.
  RxRig rig;
  rig.receiver.OnFragment(rig.Frag(0, 0, 2));
  rig.kernel.engine().RunFor(NpsReceiver::Options{}.nak_delay * 2);
  EXPECT_EQ(rig.receiver.stats().chunks_received, 0);
  EXPECT_EQ(rig.receiver.stats().chunks_abandoned, 1);
  EXPECT_EQ(rig.receiver.incomplete_chunks(), 0u);
  EXPECT_EQ(rig.receiver.stats().naks_sent, 0);
}

// ---------------------------------------------------------------------------
// End to end over an impaired link: CRAS -> NPS -> lossy wire -> repair.

struct LossyQtPlayRig {
  cras::Testbed server_host;
  crrt::Kernel client_host;
  Link forward;
  Link reverse;
  NpsReceiver receiver;
  NpsSender sender;

  explicit LossyQtPlayRig(const LinkImpairments& impairments, bool reliability,
                          const NpsReceiver::Options& receiver_options = {})
      : client_host(server_host.engine(), crrt::Kernel::Options{}),
        forward(server_host.engine(), ImpairedOptions(impairments)),
        reverse(server_host.engine()),
        receiver(client_host, receiver_options),
        sender(server_host.kernel, server_host.cras_server, forward, receiver) {
    if (reliability) {
      receiver.ConnectReverse(reverse, sender);
    }
    server_host.StartServers();
  }

  static Link::Options ImpairedOptions(const LinkImpairments& impairments) {
    Link::Options options;  // the default 10 Mb/s Ethernet
    options.impairments = impairments;
    return options;
  }
};

struct PlayResult {
  std::int64_t frames_ok = 0;
  std::int64_t frames_missing = 0;
};

// Opens+starts a session, streams `movie` through the rig, and consumes
// every frame by logical time on the client host.
PlayResult StreamMovie(LossyQtPlayRig& rig, const crmedia::MediaFile& movie,
                       crbase::Duration run_for) {
  cras::SessionId session = cras::kInvalidSession;
  crsim::Task opener = rig.server_host.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await rig.server_host.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
        (void)co_await rig.server_host.cras_server.StartStream(
            session, rig.server_host.cras_server.SuggestedInitialDelay());
      });
  rig.server_host.engine().RunFor(Milliseconds(50));
  CRAS_CHECK(session != cras::kInvalidSession);
  crsim::Task sender_task = rig.sender.Start(session, &movie.index);

  PlayResult result;
  crsim::Task player = rig.client_host.Spawn(
      "qtclient", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        const crbase::Duration delay =
            rig.server_host.cras_server.SuggestedInitialDelay() + Milliseconds(200);
        rig.receiver.clock().Start(delay);
        co_await ctx.Sleep(delay);
        for (const crmedia::Chunk& chunk : movie.index.chunks()) {
          while (rig.receiver.clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (rig.receiver.Get(chunk.timestamp).has_value()) {
            ++result.frames_ok;
          } else {
            ++result.frames_missing;
          }
        }
      });
  rig.server_host.engine().RunFor(run_for);
  return result;
}

TEST(NpsReliability, RetransmitRepairsIidLoss) {
  LinkImpairments impairments;
  impairments.loss_probability = 0.02;
  LossyQtPlayRig rig(impairments, /*reliability=*/true);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(12));

  EXPECT_EQ(result.frames_missing, 0);
  EXPECT_EQ(result.frames_ok, static_cast<std::int64_t>(movie->index.count()));
  // The repair machinery actually ran: losses were detected and NAKed.
  EXPECT_GT(rig.forward.stats().wire_drops, 0);
  EXPECT_GT(rig.receiver.stats().naks_sent, 0);
  EXPECT_GT(rig.sender.stats().fragments_retransmitted, 0);
  EXPECT_EQ(rig.sender.stats().naks_received, rig.receiver.stats().naks_sent);
}

TEST(NpsReliability, WithoutRepairLossLosesFrames) {
  LinkImpairments impairments;
  impairments.loss_probability = 0.02;
  LossyQtPlayRig rig(impairments, /*reliability=*/false);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(12));

  EXPECT_GT(result.frames_missing, 0);
  EXPECT_EQ(rig.receiver.stats().naks_sent, 0);
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, 0);
}

TEST(NpsReliability, BlackoutTriggersDeadlineGiveUpThenRecovery) {
  // A total loss window mid-stream: repair cannot succeed (retransmits are
  // lost too), so both ends must give up on the dead chunks — and resume
  // cleanly when the wire heals.
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/true);
  crfault::FaultPlan plan;
  plan.LinkLoss(Seconds(3), 1.0).LinkRecover(Seconds(4));
  crfault::FaultInjector injector(rig.server_host.engine(), rig.forward, plan);
  injector.Arm();

  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(12));

  // Frames inside the blackout are gone; everything else plays. ~30 frames
  // fall in the one-second window (logical lag shifts its edges slightly).
  EXPECT_GT(result.frames_missing, 10);
  EXPECT_LT(result.frames_missing, 60);
  EXPECT_EQ(result.frames_ok + result.frames_missing,
            static_cast<std::int64_t>(movie->index.count()));
  // Both give-up paths fired: the receiver walked away from unrepairable
  // chunks, and late NAKs were refused at the sender.
  EXPECT_GT(rig.receiver.stats().chunks_abandoned, 0);
  EXPECT_GT(rig.receiver.stats().naks_sent, 0);
  // After recovery the stream runs clean again: the last frames all played.
  EXPECT_GT(result.frames_ok, 0);
}

TEST(NpsReliability, SenderJudgesNakDeadlinesByTheReceiversPlayout) {
  // The receiver plays 200 ms behind the session clock (StreamMovie's
  // slack) and, as on a jittery path, waits out a long reordering grace
  // before NAKing. Its NAKs reach the sender after the *session* clock has
  // passed the chunk's deadline but well before its own: judged (and
  // pruned) by the session clock, they would land as naks_unknown and the
  // frames would be lost.
  NpsReceiver::Options receiver_options;
  receiver_options.nak_delay = Milliseconds(280);
  receiver_options.nak_backoff_cap = Milliseconds(280);
  LinkImpairments impairments;
  impairments.loss_probability = 0.01;
  LossyQtPlayRig rig(impairments, /*reliability=*/true, receiver_options);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(20));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(26));

  ASSERT_GT(rig.receiver.stats().naks_sent, 0);
  EXPECT_EQ(rig.sender.stats().naks_received, rig.receiver.stats().naks_sent);
  EXPECT_EQ(rig.sender.stats().naks_unknown, 0);
  EXPECT_EQ(rig.sender.stats().retransmits_abandoned, 0);
  EXPECT_GT(rig.sender.stats().fragments_retransmitted, 0);
  EXPECT_EQ(result.frames_missing, 0);
}

TEST(NpsReliability, LostFinalChunksAreNakedByTheTailSweep) {
  // A blackout swallows the last chunks of the stream: no later packet
  // reveals them as a sequence gap, so only the receiver's tail sweep —
  // its playout clock nearing the final chunk — can ask for them.
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/true);
  crfault::FaultPlan plan;
  // Chunks ship 250 ms ahead of a session clock that reads zero at ~1 s:
  // the final four (timestamps 5.87-5.97 s) leave between 6.6 and 6.9 s.
  plan.LinkLoss(Milliseconds(6600), 1.0).LinkRecover(Milliseconds(6900));
  crfault::FaultInjector injector(rig.server_host.engine(), rig.forward, plan);
  injector.Arm();
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(12));

  ASSERT_GT(rig.forward.stats().wire_drops, 0);
  EXPECT_GT(rig.receiver.stats().naks_sent, 0);
  EXPECT_EQ(rig.receiver.stats().chunks_received,
            static_cast<std::int64_t>(movie->index.count()))
      << "every lost tail chunk was repaired";
  EXPECT_EQ(rig.receiver.incomplete_chunks(), 0u);
  // The sweep runs a jitter allowance before the final chunk is due, so
  // the final frames play; a chunk due at the sweep itself may be late.
  EXPECT_LE(result.frames_missing, 2);
  EXPECT_EQ(result.frames_ok + result.frames_missing,
            static_cast<std::int64_t>(movie->index.count()));
}

// ---------------------------------------------------------------------------
// Session leases.

struct LeaseRig {
  cras::TestbedOptions options;
  std::unique_ptr<cras::Testbed> bed;
  Link loop;  // heartbeat path (client -> server)
  cras::SessionId session = cras::kInvalidSession;

  LeaseRig() : LeaseRig(Milliseconds(200)) {}

  explicit LeaseRig(crbase::Duration lease_period)
      : options(WithLease(lease_period)),
        bed(std::make_unique<cras::Testbed>(options)),
        loop(bed->engine()) {
    bed->StartServers();
  }

  static cras::TestbedOptions WithLease(crbase::Duration period) {
    cras::TestbedOptions options;
    options.cras.lease_period = period;
    return options;
  }

  void OpenAndStart(const crmedia::MediaFile& movie) {
    crsim::Task opener = bed->kernel.Spawn(
        "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
          cras::OpenParams params;
          params.inode = movie.inode;
          params.index = movie.index;
          auto opened = co_await bed->cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          session = *opened;
          (void)co_await bed->cras_server.StartStream(
              session, bed->cras_server.SuggestedInitialDelay());
        });
    bed->engine().RunFor(Milliseconds(50));
    CRAS_CHECK(session != cras::kInvalidSession);
  }
};

TEST(Lease, HeartbeatsKeepSessionAlive) {
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);

  LeaseClient::Options hb;
  hb.period = Milliseconds(80);  // renew ~2.5x per lease period
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat = lease.Start();
  rig.bed->engine().RunFor(Seconds(2));

  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  EXPECT_GT(rig.bed->cras_server.stats().lease_renewals, 0);
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_reaped, 0);
  EXPECT_FALSE(rig.bed->cras_server.WasReaped(rig.session));
  EXPECT_GT(lease.heartbeats_sent(), 20);
}

TEST(Lease, SilentClientReapedWithinTwoPeriods) {
  LeaseRig rig;  // 200 ms lease period
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  const std::int64_t reserved = rig.bed->cras_server.buffer_bytes_reserved();
  ASSERT_GT(reserved, 0);

  LeaseClient::Options hb;
  hb.period = Milliseconds(80);
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat = lease.Start();
  rig.bed->engine().RunFor(Seconds(1));
  ASSERT_EQ(rig.bed->cras_server.open_sessions(), 1u);

  // The client dies: heartbeats stop. Within two lease periods the server
  // must have reaped the session and returned its buffer reservation.
  lease.Stop();
  rig.bed->engine().RunFor(2 * rig.options.cras.lease_period + hb.period);

  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 0u);
  EXPECT_TRUE(rig.bed->cras_server.WasReaped(rig.session));
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_reaped, 1);
  EXPECT_EQ(rig.bed->cras_server.buffer_bytes_reserved(), 0);
  EXPECT_EQ(rig.bed->cras_server.resumable_sessions(), 1u);
}

TEST(Lease, ReconnectResumesReapedSessionAtItsPosition) {
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  // Play (with heartbeats) for a while, then go silent and get reaped.
  LeaseClient::Options hb;
  hb.period = Milliseconds(80);
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat = lease.Start();
  rig.bed->engine().RunFor(Seconds(2));
  const crbase::Time position = rig.bed->cras_server.LogicalNow(rig.session);
  EXPECT_GT(position, 0);
  lease.Stop();
  rig.bed->engine().RunFor(Seconds(1));
  ASSERT_EQ(rig.bed->cras_server.open_sessions(), 0u);
  ASSERT_TRUE(rig.bed->cras_server.WasReaped(rig.session));

  // Reconnect-and-resume by the original session id.
  bool reconnected = false;
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        crbase::Status st = co_await rig.bed->cras_server.Reconnect(rig.session);
        CRAS_CHECK(st.ok()) << st.ToString();
        reconnected = true;
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  ASSERT_TRUE(reconnected);
  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_resumed, 1);
  EXPECT_EQ(rig.bed->cras_server.resumable_sessions(), 0u);
  EXPECT_GT(rig.bed->cras_server.buffer_bytes_reserved(), 0);
  // Keep the resumed lease alive for the rest of the test.
  LeaseClient lease2(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat2 = lease2.Start();

  // The clock resumes from roughly where the reaper froze it (backed off by
  // the restart pipeline-fill delay), not from zero.
  rig.bed->engine().RunFor(rig.bed->cras_server.SuggestedInitialDelay() + Milliseconds(100));
  const crbase::Time resumed = rig.bed->cras_server.LogicalNow(rig.session);
  EXPECT_GT(resumed, position);
  // And data flows again.
  rig.bed->engine().RunFor(Seconds(1));
  auto stats = rig.bed->cras_server.GetSessionStats(rig.session);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->chunks_published, 0);
}

TEST(Lease, ReconnectOnLiveSessionJustRenews) {
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  bool ok = false;
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        ok = (co_await rig.bed->cras_server.Reconnect(rig.session)).ok();
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_resumed, 0);
}

TEST(Lease, ReconnectUnknownSessionIsNotFound) {
  LeaseRig rig;
  bool not_found = false;
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        crbase::Status st = co_await rig.bed->cras_server.Reconnect(999);
        not_found = !st.ok();
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  EXPECT_TRUE(not_found);
}

// ---------------------------------------------------------------------------
// Remote post-mortem: DumpQuery pulls the flight recorder over the wire.

TEST(FlightDump, RemoteDumpQueryCapturesFailureAutopsy) {
  // A member of a 2-disk striped (no parity) volume fail-stops mid-playback:
  // nothing is admissible on the survivor, so the server sheds every stream.
  // The operator on the client host then pulls a flight-recorder dump over
  // the link and must see the whole causal chain — the injected fault, the
  // member-state change, and the shed decisions — plus the budget-ledger
  // tail, without any access to the server host.
  cras::VolumeTestbedOptions options;
  options.volume.disks = 2;
  cras::VolumeTestbed bed(options);
  bed.StartServers();

  constexpr int kStreams = 4;
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < kStreams; ++i) {
    auto movie = crmedia::WriteMpeg1File(bed.fs, "movie" + std::to_string(i), Seconds(6));
    ASSERT_TRUE(movie.ok());
    files.push_back(std::move(*movie));
  }
  std::vector<std::unique_ptr<cras::PlayerStats>> player_stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(4);
  for (int i = 0; i < kStreams; ++i) {
    player_options.start_delay = Milliseconds(37) * i;
    player_stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)],
                                            player_options, player_stats.back().get()));
  }

  Link link(bed.engine());  // the default 10 Mb/s segment
  StatsQueryService stats(bed.kernel, bed.hub, &link);
  stats.Start();

  crfault::FaultPlan plan;
  plan.FailStop(Milliseconds(1500), 0);
  crfault::FaultInjector injector(bed.engine(), bed.volume, plan);
  injector.AttachObs(&bed.hub);
  injector.Arm();

  std::string dump;
  crsim::Task operator_task = bed.kernel.Spawn(
      "operator", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        co_await ctx.Sleep(Seconds(3));  // notice the outage, then pull
        dump = co_await stats.DumpQuery("operator_pull");
      });
  bed.engine().RunFor(Seconds(5));

  // The failure actually bit: every stream was shed.
  ASSERT_EQ(injector.events_fired(), 1);
  EXPECT_EQ(bed.cras_server.stats().streams_shed, kStreams);

  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"operator_pull\""), std::string::npos);
  EXPECT_NE(dump.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(dump.find("\"member_change\""), std::string::npos);
  EXPECT_NE(dump.find("\"detail\": \"failed\""), std::string::npos);
  EXPECT_NE(dump.find("\"stream_shed\""), std::string::npos);
  EXPECT_NE(dump.find("\"ledger_tail\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  // The dump rode the link as ordinary traffic.
  EXPECT_EQ(stats.stats().queries, 1);
  EXPECT_EQ(stats.stats().reply_bytes, static_cast<std::int64_t>(dump.size()));
}

TEST(Lease, DisabledByDefaultNothingReaps) {
  cras::Testbed bed;  // lease_period = 0: the classic trusting server
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  cras::SessionId session = cras::kInvalidSession;
  crsim::Task opener = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie->inode;
        params.index = movie->index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
      });
  bed.engine().RunFor(Seconds(5));  // no heartbeats, no reaper
  EXPECT_EQ(bed.cras_server.open_sessions(), 1u);
  EXPECT_EQ(bed.cras_server.stats().sessions_reaped, 0);
  EXPECT_FALSE(bed.cras_server.WasReaped(session));
}

}  // namespace
}  // namespace crnet
