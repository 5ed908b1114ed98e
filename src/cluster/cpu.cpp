#include "cluster/cpu.hpp"

namespace gridmon::cluster {

SimTime Cpu::execute(SimTime demand, sim::EventFn done) {
  if (demand < 0) demand = 0;
  const SimTime now = sim_.now();
  const SimTime start = free_at_ > now ? free_at_ : now;
  free_at_ = start + demand;
  busy_ += demand;
  if (done) {
    sim_.schedule_at(free_at_, std::move(done));
  }
  return free_at_;
}

}  // namespace gridmon::cluster
