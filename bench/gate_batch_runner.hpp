// Forwarding header: the lane harness lives in src/gates/batch_runner.hpp.
#pragma once

#include "gates/batch_runner.hpp"

namespace gaip::bench {
using gates::BatchGateRunner;
using gates::BatchLaneResult;
}  // namespace gaip::bench
