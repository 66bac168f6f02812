#pragma once

// One entry point per workload family. A measured run fills the end-to-end
// metrics; a traced run fills the per-layer metrics its workload exercises.

#include "common.hpp"

namespace perfbench {

void run_serve(const Options& opt, Report& rep);
void run_serve_trace(const Options& opt, Report& rep);
void run_campaign(const Options& opt, Report& rep);
void run_campaign_trace(const Options& opt, Report& rep);

}  // namespace perfbench
