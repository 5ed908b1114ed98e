// The chaos/* scenario family: deterministic fault-injection campaigns.
//
// Each scenario pairs a classic experiment configuration with a FaultPlan
// and (usually) the recovery policies, plus a `_norecovery` twin where the
// comparison is the point: the availability columns (downtime, TTR,
// in-window vs post-window loss) only mean something against the baseline
// that never reconnects. Fault times are fixed virtual offsets — chaos runs
// are exactly as deterministic as the fault-free ones.
#include "core/registry.hpp"
#include "core/scenarios.hpp"

namespace gridmon::core {

void register_chaos_scenarios(ScenarioRegistry& reg) {
  // --- Narada ---------------------------------------------------------------

  // Broker crash at steady state, 10 s dwell, then restart. With recovery,
  // clients reconnect under capped exponential backoff and resubscribe, so
  // only in-window traffic is lost; without it, every message after the
  // crash is lost and TTR pins at the run horizon.
  {
    NaradaConfig config = scenarios::narada_single(800);
    config.faults.broker_crash(units::seconds(15), 0, units::seconds(10));
    config.fleet.recovery = true;
    // The SLO both twins are judged against: recovery holds it (TTR is
    // bounded by the dwell + reconnect backoff), the no-recovery baseline
    // violates it (TTR pins at the horizon) — the CI-gate fixture for
    // `gridmon_cli run --slo`.
    obs::SloSpec slo;
    slo.max_loss_pct(50.0)
        .max_ttr_ms(30000.0)
        .min_availability_pct(55.0);
    reg.add({"chaos/narada/broker_crash/800",
             "Chaos: single broker crashes 15 s into steady state (10 s "
             "dwell); clients reconnect + resubscribe",
             config, slo});
    config.fleet.recovery = false;
    reg.add({"chaos/narada/broker_crash/800_norecovery",
             "Chaos baseline: same broker crash, no client recovery (all "
             "post-crash traffic lost)",
             config, slo});
  }

  // DBN partition: the switch paths between publishing and subscribing
  // brokers are cut for 10 s (a cable cut, not a NIC fault — client links
  // stay up). Connections survive; cross-partition events are dropped.
  {
    NaradaConfig config = scenarios::narada_dbn(800);
    config.faults.dbn_partition(units::seconds(15), units::seconds(10));
    config.fleet.recovery = true;
    obs::SloSpec slo;
    slo.max_loss_pct(40.0)
        .max_loss_pct(2.0, obs::SloScope::kSteady)
        .max_ttr_ms(30000.0);
    reg.add({"chaos/narada/dbn_partition",
             "Chaos: 4-broker DBN split pub/sub for 10 s at steady state "
             "(inter-broker paths blocked)",
             config, slo});
  }

  // Subscriber NIC flap: the subscriber host drops off the LAN twice for
  // 5 s. TCP connections persist (a yanked cable, not a close), so loss is
  // confined to the windows — no reconnect is needed or triggered.
  {
    NaradaConfig config = scenarios::narada_single(400);
    config.faults.nic_down(units::seconds(15), 1, units::seconds(5))
        .nic_down(units::seconds(40), 1, units::seconds(5));
    obs::SloSpec slo;
    slo.max_loss_pct(2.0, obs::SloScope::kSteady)
        .max_ttr_ms(20000.0)
        .min_availability_pct(60.0);
    reg.add({"chaos/narada/nic_flap/400",
             "Chaos: subscriber host NIC flaps twice (5 s each) at steady "
             "state; loss confined to the windows",
             config, slo});
  }

  // UDP loss burst: LAN-wide datagram loss spikes to 30 % for 10 s on the
  // unreliable transport (a congestion event; JMS over UDP has no recovery
  // to offer, so there is no recovery twin).
  {
    NaradaConfig config = scenarios::narada_single(800);
    config.transport = narada::TransportKind::kUdp;
    config.faults.loss_burst(units::seconds(15), 0.30, units::seconds(10));
    obs::SloSpec slo;
    slo.max_loss_pct(15.0).max_loss_pct(8.0, obs::SloScope::kSteady);
    reg.add({"chaos/narada/udp_loss_burst/800",
             "Chaos: LAN datagram loss bursts to 30% for 10 s under the UDP "
             "transport",
             config, slo});
  }

  // --- MQTT -----------------------------------------------------------------

  // Flapping monitoring uplink: the subscriber host's NIC drops off the
  // LAN in three 8 s bursts (a yanked cable — the TCP connection itself
  // survives, in-flight frames vanish). At QoS 1 every in-window delivery
  // sits in the broker's in-flight window until PUBACKed, so the DUP
  // retransmission sweep redelivers it after the flap — holding the
  // paper's 0.5 % loss requirement. The QoS 0 twin streams through the
  // same flaps fire-and-forget and eats the in-window loss; worse, its
  // only upstream traffic is the 30 s PINGREQ, so one ping eaten by a
  // flap blows the broker's 1.5x keep-alive grace and the session is
  // expired — recovery (reconnect + resubscribe) is what puts the
  // subscriber back on the air at all.
  {
    MqttConfig config = scenarios::mqtt_single(800, /*qos=*/1);
    config.fleet.recovery = true;
    // Host 1 is the subscriber host (first non-broker host; see
    // run_mqtt_experiment).
    config.faults.nic_down(units::seconds(15), 1, units::seconds(8))
        .nic_down(units::seconds(45), 1, units::seconds(8))
        .nic_down(units::seconds(75), 1, units::seconds(8));
    obs::SloSpec slo;
    slo.max_loss_pct(0.5).max_ttr_ms(20000.0);
    reg.add({"chaos/mqtt/flapping_link/800",
             "Chaos: subscriber uplink flaps 3x8 s; QoS 1 broker "
             "retransmissions hold the 0.5% loss bound",
             config, slo});
    config.qos = 0;
    reg.add({"chaos/mqtt/flapping_link/800_qos0",
             "Chaos baseline: same uplink flaps at QoS 0 (fire-and-forget "
             "eats the in-window loss)",
             config, slo});
  }

  // Broker crash with persistent sessions: the process dies 15 s into
  // steady state (all in-memory state lost) and restarts empty after 10 s.
  // With recovery, clients reconnect under backoff, resubscribe (CONNACK
  // says session_present=0), and redeliver their own in-flight QoS 1
  // windows — the client-driven recovery story.
  {
    MqttConfig config = scenarios::mqtt_single(800, /*qos=*/1);
    config.clean_session = false;
    config.faults.broker_crash(units::seconds(15), 0, units::seconds(10));
    config.fleet.recovery = true;
    obs::SloSpec slo;
    slo.max_loss_pct(50.0).max_ttr_ms(30000.0).min_availability_pct(55.0);
    reg.add({"chaos/mqtt/broker_crash/800",
             "Chaos: MQTT broker crashes 15 s into steady state (10 s "
             "dwell); clients reconnect, resubscribe, redeliver QoS 1",
             config, slo});
    config.fleet.recovery = false;
    reg.add({"chaos/mqtt/broker_crash/800_norecovery",
             "Chaos baseline: same broker crash, no client recovery (all "
             "post-crash traffic lost)",
             config, slo});
  }

  // --- R-GMA ----------------------------------------------------------------

  // Registry outage during the creation ramp (anchored at run start: the
  // directory only matters while registrations and mediation happen). Soft
  // state is wiped; with recovery, renewal heartbeats re-register producers
  // and consumers and mediation re-forms the attachments — GMA's data-path/
  // directory separation means streaming itself never stops.
  {
    RgmaConfig config = scenarios::rgma_single(400);
    config.faults.registry_restart(units::seconds(60), units::seconds(120),
                                   FaultAnchor::kRunStart);
    config.registry_ttl = units::seconds(60);
    config.fleet.recovery = true;
    // GMA separates data path from directory: deliveries continue through
    // the outage, so the discriminating bound is whole-run loss (producers
    // that never mediate publish into the void).
    obs::SloSpec slo;
    slo.max_loss_pct(30.0);
    reg.add({"chaos/rgma/registry_outage/400",
             "Chaos: registry container down 60-180 s into the ramp (state "
             "wiped, TTL 60 s); renewals re-register",
             config, slo});
    config.fleet.recovery = false;
    reg.add({"chaos/rgma/registry_outage/400_norecovery",
             "Chaos baseline: same registry outage, no renewals (producers "
             "created in or after the outage never mediate)",
             config, slo});
  }

  // Servlet-container restarts at steady state: the producer container dies
  // for 10 s (tuple stores, worker threads and attachments lost), then the
  // consumer container 30 s later. With recovery, producers re-declare on
  // failed inserts and the subscriber re-creates its query on failed polls.
  {
    RgmaConfig config = scenarios::rgma_single(200);
    config.faults
        .producer_servlet_restart(units::seconds(15), 0, units::seconds(10))
        .consumer_servlet_restart(units::seconds(45), 0, units::seconds(10));
    config.registry_ttl = units::seconds(60);
    config.fleet.recovery = true;
    // Calibrated for runs of >= 5 virtual minutes: recovery re-creates the
    // query within ~10 s of the consumer window (TTR burn 0.23) while the
    // baseline's TTR clamps at the horizon (burn ~7, loss > 50%). At
    // 1-minute smoke runs the poll-driven detection has not fired yet and
    // *both* twins miss the TTR bound — expected, not a regression.
    obs::SloSpec slo;
    slo.max_loss_pct(50.0).max_ttr_ms(45000.0);
    reg.add({"chaos/rgma/servlet_restart",
             "Chaos: producer then consumer servlet containers restart (10 s "
             "outages); clients re-declare / re-create",
             config, slo});
    config.fleet.recovery = false;
    reg.add({"chaos/rgma/servlet_restart_norecovery",
             "Chaos baseline: same servlet restarts, no client recovery "
             "(producers and the query stay dead)",
             config, slo});
  }

  // Half-open registry: the container wedges (accepts requests, burns
  // servlet time, never answers) instead of dying cleanly. Without a
  // request timeout the renewal heartbeats would hang forever; with one
  // they fail fast (408) and retry on the next beat, so the directory
  // heals as soon as the container un-wedges.
  {
    RgmaConfig config = scenarios::rgma_single(400);
    config.faults.registry_half_open(units::seconds(60), units::seconds(120),
                                     FaultAnchor::kRunStart);
    config.registry_ttl = units::seconds(60);
    config.request_timeout = units::seconds(2);
    config.fleet.recovery = true;
    obs::SloSpec slo;
    slo.max_loss_pct(30.0);
    reg.add({"chaos/rgma/registry_halfopen/400",
             "Chaos: registry wedges half-open 60-180 s into the ramp "
             "(accepts, never answers); 2 s client time-outs rescue the "
             "renewal heartbeats",
             config, slo});
  }

  // --- Replay twins ---------------------------------------------------------
  //
  // The reconnect-backfill study: each twin re-runs a recovery scenario
  // with the replication layer on (tiered retention + gap replay), and is
  // gated on loss *after* recovery going to ~0 — recovery alone only stops
  // the bleeding, replay wins the fault-window traffic back.

  // Single-broker crash with backfill. The restarted broker's retention
  // restarts empty (history dies with the process), but the sequence
  // journal survives, so reconnecting publishers flush their backlogs into
  // fresh retention and the subscriber's backfill covers everything that
  // resumed before its own resubscribe landed.
  {
    NaradaConfig config = scenarios::narada_single(800);
    config.faults.broker_crash(units::seconds(15), 0, units::seconds(10));
    config.fleet.recovery = true;
    config.replay = true;
    obs::SloSpec slo;
    slo.max_loss_after_recovery_pct(0.5)
        .max_ttr_ms(30000.0)
        .min_availability_pct(55.0);
    reg.add({"chaos/narada/broker_crash_replay/800",
             "Replay twin: broker crash + reconnect backfill; loss after "
             "recovery gated at 0.5%",
             config, slo});
  }

  // DBN broker crash with fail-over: clients of the dead broker re-home to
  // a surviving broker after two failed reconnect attempts and backfill
  // from its replicated retention — the stream never waits for the restart.
  {
    NaradaConfig config = scenarios::narada_dbn(800);
    config.faults.broker_crash(units::seconds(15), 2, units::seconds(10));
    config.fleet.recovery = true;
    config.replay = true;
    obs::SloSpec slo;
    slo.max_loss_after_recovery_pct(0.5).max_ttr_ms(30000.0);
    reg.add({"chaos/narada/dbn_broker_crash_replay",
             "Replay twin: one of 4 DBN brokers crashes; its clients "
             "re-home to survivors and backfill from replicated retention",
             config, slo});
  }

  // DBN partition with peer repair: at heal, every broker pulls the frames
  // it missed from its peers, then the (settled) client backfills find
  // complete retention wherever they land.
  {
    NaradaConfig config = scenarios::narada_dbn(800);
    config.faults.dbn_partition(units::seconds(15), units::seconds(10));
    config.fleet.recovery = true;
    config.replay = true;
    obs::SloSpec slo;
    slo.max_loss_after_recovery_pct(0.5).max_ttr_ms(30000.0);
    reg.add({"chaos/narada/dbn_partition_replay",
             "Replay twin: 10 s pub/sub partition; peer backfill repairs "
             "broker retention at heal, clients replay their gaps",
             config, slo});
  }

  // Subscriber NIC flap with gap replay: the connection survives, so no
  // reconnect fires — the per-origin sequence chain notices the hole on
  // the first post-flap delivery and pulls the window from broker
  // retention.
  {
    NaradaConfig config = scenarios::narada_single(400);
    config.faults.nic_down(units::seconds(15), 1, units::seconds(5))
        .nic_down(units::seconds(40), 1, units::seconds(5));
    config.fleet.recovery = true;
    config.replay = true;
    obs::SloSpec slo;
    slo.max_loss_after_recovery_pct(0.5).max_ttr_ms(20000.0);
    reg.add({"chaos/narada/nic_flap_replay/400",
             "Replay twin: subscriber NIC flaps 2x5 s; sequence-gap "
             "detection replays the windows from broker retention",
             config, slo});
  }

  // MQTT flapping link with a persistent session: a short keep-alive makes
  // the broker park the dead subscriber quickly; QoS 1 traffic queues in
  // the (retention-bounded) offline queue and drains on resume.
  {
    MqttConfig config = scenarios::mqtt_single(800, /*qos=*/1);
    config.fleet.recovery = true;
    config.clean_session = false;
    config.keep_alive = units::seconds(2);
    config.replay = true;
    config.faults.nic_down(units::seconds(15), 1, units::seconds(8))
        .nic_down(units::seconds(45), 1, units::seconds(8))
        .nic_down(units::seconds(75), 1, units::seconds(8));
    obs::SloSpec slo;
    slo.max_loss_after_recovery_pct(0.5).max_ttr_ms(20000.0);
    reg.add({"chaos/mqtt/flapping_link_replay/800",
             "Replay twin: uplink flaps 3x8 s against a persistent session; "
             "the offline queue holds the windows and drains on resume",
             config, slo});
  }

  // R-GMA consumer-container restart with history backfill: the re-created
  // continuous query is preceded by a one-time history query against
  // producer retention, winning back the poll gap (producer stores
  // survived, only the consumer side died).
  {
    RgmaConfig config = scenarios::rgma_single(200);
    config.faults.consumer_servlet_restart(units::seconds(15), 0,
                                           units::seconds(10));
    config.registry_ttl = units::seconds(60);
    config.fleet.recovery = true;
    config.replay = true;
    obs::SloSpec slo;
    slo.max_loss_after_recovery_pct(0.5);
    reg.add({"chaos/rgma/servlet_restart_replay",
             "Replay twin: consumer container restarts (10 s); the re-made "
             "query backfills from producer history retention",
             config, slo});
  }
}

}  // namespace gridmon::core
