// Calibrated cost-model constants, in one place.
//
// Everything here is a *duration or size model* for the 2007 testbed
// (Pentium III 866 MHz, Sun HotSpot 1.4.2, 100 Mbps LAN). The middleware
// logic in src/narada and src/rgma is real code; these constants only decide
// how long each real step takes on the modelled hardware. Each constant
// cites the paper observation it was calibrated against; EXPERIMENTS.md
// records the resulting fit.
#pragma once

#include "util/units.hpp"

namespace gridmon::cluster::costs {

using gridmon::units::KiB;
using gridmon::units::MiB;
using gridmon::units::microseconds;
using gridmon::units::milliseconds;
using gridmon::units::seconds;

// --- Generic JVM-on-PIII costs -------------------------------------------

/// CPU time to serialise/deserialise one byte of message payload
/// (Java object streams on an 866 MHz core: tens of MB/s).
constexpr double kSerializePerByteNs = 100.0;

/// Client-library cost to assemble and hand a message to the socket layer.
constexpr SimTime kClientSendBase = microseconds(260);

/// Client-library cost to deliver a received message to application code.
constexpr SimTime kClientReceiveBase = microseconds(220);

/// Service-time inflation per live thread (context switching, lock
/// contention, scheduler load). Calibrated against Fig 7's smooth RTT rise
/// from 500 to 3000 connections on a single broker.
constexpr double kThreadLoadFactor = 0.0012;

/// Native stack + bookkeeping per connection-serving thread (JVM 1.4
/// default stack size region). Drives the Narada OOM near 4000 connections:
/// 1 GiB budget / ~0.26 MiB per connection ≈ 3900.
constexpr std::int64_t kThreadStackBytes = 232 * KiB;
constexpr std::int64_t kConnectionBufferBytes = 34 * KiB;

/// JVM heap budgets used in the paper (-Xmx1024m for both systems).
constexpr std::int64_t kJvmHeapBudget = 1024 * MiB;

/// Baseline process footprint before any connection arrives.
constexpr std::int64_t kJvmBaselineBytes = 46 * MiB;

// --- JVM garbage collector ------------------------------------------------

/// Minor collections: mean period at idle, shrinking as allocation pressure
/// (live connections) grows; pause grows with heap occupancy. These produce
/// the 95→100 % percentile tails of Figs 4, 8, 9.
constexpr SimTime kGcCheckPeriod = milliseconds(250);
constexpr double kGcChancePerCheckIdle = 0.012;
constexpr double kGcChanceOccupancyGain = 0.10;
constexpr SimTime kGcMinorPauseBase = milliseconds(4);
constexpr SimTime kGcMinorPausePerOccupancy = milliseconds(90);
constexpr double kGcFullThreshold = 0.85;
constexpr SimTime kGcFullPause = milliseconds(320);

// --- NaradaBrokering -------------------------------------------------------

/// Broker CPU per event: selector evaluation + routing table lookup +
/// dispatch. Calibrated against Fig 3's TCP bar (~3 ms end-to-end RTT at
/// 800 connections).
constexpr SimTime kBrokerServiceBase = microseconds(520);

/// Extra broker CPU per subscriber the event fans out to.
constexpr SimTime kBrokerFanoutCost = microseconds(60);

/// JMS MapMessage wire size for the paper's payload (2 int, 5 float,
/// 2 long, 3 double, 4 string) plus JMS + Narada event headers.
constexpr std::int64_t kNaradaMessageBytes = 620;

/// JMS-over-UDP acknowledgement handling: Narada acknowledges each UDP
/// packet on a coarse bookkeeping cycle before releasing it downstream.
/// The paper calls this out as the reason UDP was "surprisingly high"
/// (~12 ms vs ~3 ms for TCP).
constexpr SimTime kUdpAckFlushPeriod = milliseconds(17);
constexpr SimTime kUdpAckProcessing = microseconds(350);

/// CLIENT_ACKNOWLEDGE adds a client-side acknowledge call per message.
constexpr SimTime kClientAckCost = microseconds(400);
constexpr SimTime kClientAckExtraLatency = milliseconds(2);

/// NIO (selector-based) server mode: events are picked up on the next
/// selector wakeup instead of synchronously by a blocked reader thread.
constexpr SimTime kNioPollGranularity = milliseconds(3);

/// Inter-broker link processing inside a broker network.
constexpr SimTime kBrokerForwardCost = microseconds(900);

/// Per-datagram loss probability of the UDP transport on the otherwise
/// quiet LAN. Calibrated against Test 1's 0.06 % message loss.
constexpr double kUdpLossProbability = 0.0003;

// --- R-GMA ------------------------------------------------------------------

/// Tomcat/servlet request handling CPU (parse HTTP, dispatch servlet).
constexpr SimTime kServletRequestCost = microseconds(900);

/// SQL INSERT handling in the Primary Producer (parse + store).
constexpr SimTime kInsertProcessingCost = microseconds(650);

/// Tuple handling cost in the Consumer (mediate, match, buffer).
constexpr SimTime kConsumerTupleCost = microseconds(500);

/// The producer streams newly inserted tuples to attached consumers on a
/// periodic cycle rather than per tuple.
constexpr SimTime kProducerStreamPeriod = milliseconds(380);

/// The consumer's continuous-query evaluation cycle: a base sweep plus a
/// per-registered-producer term. This is the dominant component of the
/// paper's "very long Process Time" (Fig 15) and its growth with the number
/// of producers yields Fig 11's RTT slope.
constexpr SimTime kConsumerCycleBase = milliseconds(240);
constexpr SimTime kConsumerCyclePerProducer = microseconds(3000);

/// Tomcat service-time inflation per live connection thread (heavier than
/// Narada's: servlet container + JDBC structures).
constexpr double kServletThreadLoadFactor = 0.0016;

/// Per-producer-connection footprint on an R-GMA server (Tomcat worker
/// thread + servlet session + mediator bookkeeping). Drives the OOM between
/// 600 and 800 connections on one server: 1 GiB / ~1.3 MiB ≈ 780.
constexpr std::int64_t kRgmaConnectionBytes = 1340 * KiB;

/// Stored tuple footprint in a memory-storage producer.
constexpr std::int64_t kTupleBytes = 620;

/// Registration/mediation latency: how long after a producer registers the
/// consumer's plan includes it. Publishing before attachment loses tuples
/// (continuous queries do not replay the past) — the paper's warm-up rule.
constexpr SimTime kMediationLatencyBase = milliseconds(700);
constexpr SimTime kMediationLatencyPerProducer = microseconds(5200);

/// R-GMA row wire size for the paper's payload (4 int, 8 double, 4 char(20))
/// wrapped in an SQL INSERT statement.
constexpr std::int64_t kRgmaInsertBytes = 540;

/// Periodic storage maintenance on a producer server (retention sweep /
/// table housekeeping in the memory-storage layer): a stop-the-world pass
/// whose length grows with the number of retained tuples. Source of the
/// multi-second RTT tail in Figs 12/14.
constexpr SimTime kStoreMaintenancePeriod = seconds(45);
constexpr SimTime kStoreMaintenancePerTuple = microseconds(400);

/// Deliberate delay in the Secondary Producer, confirmed to the authors by
/// the R-GMA developers.
constexpr SimTime kSecondaryProducerDelay = seconds(30);

/// HTTPS (secure mode): bulk-cipher CPU per byte plus per-request record
/// and MAC overhead on the PIII (§III.F: "We did not use HTTPS because of
/// the encryption overhead" — the ablation quantifies what they avoided).
constexpr double kTlsPerByteNs = 160.0;
constexpr SimTime kTlsPerRequest = microseconds(420);

// --- MQTT (modern edge broker, modelled on the same testbed) ----------------

/// Broker CPU per control packet: parse the binary fixed header + dispatch.
/// MQTT's framing is far lighter than JMS object streams — this is the
/// tier the IoT edge-broker studies measure brokers in.
constexpr SimTime kMqttPacketBase = microseconds(140);

/// Extra broker CPU per subscriber a publish fans out to (topic-filter
/// walk + per-session enqueue).
constexpr SimTime kMqttFanoutCost = microseconds(25);

/// Per-session footprint on the broker (socket buffers + session state in
/// an epoll-style event loop — no thread per connection, so MQTT's
/// admission wall sits far beyond Narada's ~4000-thread OOM).
constexpr std::int64_t kMqttSessionBytes = 16 * KiB;

/// Bytes the model-memory profile (obs/memprof) charges per record: a
/// Narada broker's subscription entry (plus its topic's characters), a
/// topic a peer broker advertised to it (one set node, plus the
/// characters), a Narada or MQTT client, an MQTT session's subscription
/// list entry (plus its filter's characters) and an MQTT packet a broker
/// parks or queues (plus its topic and payload). Fixed numbers rather than
/// sizeof, so the memory figures do not follow host struct layout; they are
/// the x86-64 GCC 12 / libstdc++ sizes of those structs when the figures
/// were pinned.
constexpr std::int64_t kNaradaSubscriptionBytes = 184;
constexpr std::int64_t kNaradaRemoteTopicBytes = 80;
constexpr std::int64_t kNaradaClientBytes = 640;
constexpr std::int64_t kMqttClientBytes = 624;
constexpr std::int64_t kMqttSessionFilterBytes = 40;
constexpr std::int64_t kMqttPacketBytes = 192;

/// Event-loop service-time inflation per live session (timer wheel +
/// session table pressure); much gentler than a thread-per-connection JVM.
constexpr double kMqttSessionLoadFactor = 0.00004;

/// Client-library costs: assemble/deliver a binary packet (an embedded C
/// client, not a JVM).
constexpr SimTime kMqttClientSendBase = microseconds(40);
constexpr SimTime kMqttClientReceiveBase = microseconds(35);

/// Compact binary sample an edge device publishes (timestamp + a few
/// fixed-point channel readings), vs the ~430 B JMS MapMessage / ~540 B
/// SQL INSERT the 2007 systems ship for the same reading.
constexpr std::int64_t kMqttSampleBytes = 48;

/// Persistent JMS delivery: the broker forces each event to stable storage
/// before forwarding (the paper ran non-persistent; the ablation shows the
/// price of the alternative). Disk on the testbed: ~6 ms access + stream.
constexpr SimTime kPersistWriteBase = milliseconds(6);
constexpr double kPersistPerByteNs = 90.0;

}  // namespace gridmon::cluster::costs
