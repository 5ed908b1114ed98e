// MQTT campaigns are a pure function of (scenario, duration, seed): the
// full CSV and JSON exports — QoS ablations and chaos availability columns
// alike — are byte-identical whether the campaign runs on one worker thread
// or four. Pinned with (model, kernel) golden pairs like the Narada/R-GMA
// chaos goldens.
#include "golden.hpp"

namespace gridmon::core {
namespace {

TEST(MqttDeterminism, QosAblationByteIdenticalAcrossJobs) {
  const Campaign serial = golden::jobs_check({"mqtt/qos"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{9933115367822186364ULL,
                            14139268144074596081ULL}));
}

TEST(MqttDeterminism, ChaosBrokerCrashByteIdenticalAcrossJobs) {
  const Campaign serial = golden::jobs_check({"chaos/mqtt/broker_crash"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{11914556125147465608ULL,
                            4936279028429450008ULL}));
}

}  // namespace
}  // namespace gridmon::core
