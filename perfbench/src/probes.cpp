#include "probes.hpp"

#include <map>
#include <memory>
#include <optional>

#include "crypto/keyvault.hpp"
#include "program/cfg.hpp"
#include "program/trace.hpp"
#include "sig/sigstore.hpp"
#include "sig/table.hpp"
#include "workloads/scheduler.hpp"

namespace perfbench
{

using namespace rev;

double
overheadPct(const core::SimResult &rev, const core::SimResult &base)
{
    return (static_cast<double>(rev.run.cycles) /
                static_cast<double>(base.run.cycles) -
            1.0) *
           100.0;
}

LayerTotals
probeLayers(Tracer &tracer,
            const std::vector<workloads::WorkloadProfile> &profiles,
            const ProbeConfigs &cfgs)
{
    LayerTotals t;
    const core::SimConfig &rc = cfgs.rev;
    for (const workloads::WorkloadProfile &profile : profiles) {
        ++t.programs;
        prog::Program program;
        {
            auto s = tracer.span("workloads.generate");
            program = workloads::buildProgram(profile);
        }
        const prog::Module &mod = program.main();
        std::optional<prog::Cfg> cfg;
        {
            auto s = tracer.span("program.buildCfg");
            cfg.emplace(prog::buildCfg(mod, rc.core.splitLimits));
        }
        {
            auto s = tracer.span("crypto.bbHashBytes");
            for (const prog::BasicBlock &bb : cfg->blocks()) {
                const std::size_t len = bb.end - bb.start;
                sig::bbHashBytes(mod.image.data() + (bb.start - mod.base), len,
                                 bb.start, bb.term, rc.rev.chg.hashRounds);
                t.hashBytes += static_cast<double>(len);
            }
        }

        // Tables per mode, donor-chained as the sweep builds them.
        const crypto::KeyVault vault(rc.cpuSeed);
        std::map<sig::ValidationMode, std::unique_ptr<sig::SigStore>> stores;
        for (sig::ValidationMode mode : cfgs.tableModes) {
            const sig::SigStore *donor =
                stores.empty() ? nullptr : stores.begin()->second.get();
            auto s = tracer.span("sig.SigStore");
            stores[mode] = std::make_unique<sig::SigStore>(
                program, mode, vault, rc.toolchainSeed, rc.core.splitLimits,
                rc.rev.chg.hashRounds, donor);
        }
        for (const auto &[mode, store] : stores)
            t.tableBytes += static_cast<double>(store->totalTableBytes());

        core::SimConfig run = rc;
        if (const auto it = stores.find(rc.mode); it != stores.end())
            run.sigStorePrototype = it->second.get();

        prog::TraceRecorder recorder;
        {
            core::SimConfig c = run;
            c.traceRecorder = &recorder;
            core::Simulator sim(program, c);
            auto s = tracer.span("core.run.record");
            sim.run();
        }
        const prog::Trace trace = recorder.take();
        {
            core::Simulator sim(program, run);
            auto s = tracer.span("core.run.direct");
            sim.run();
        }
        core::SimResult revRes;
        stats::StatSet st;
        {
            core::SimConfig c = run;
            c.replayTrace = &trace;
            core::Simulator sim(program, c);
            {
                auto s = tracer.span("core.run.replay");
                revRes = sim.run();
            }
            st = sim.stats();
        }
        core::SimResult baseRes;
        {
            core::SimConfig c = cfgs.base;
            c.replayTrace = &trace;
            core::Simulator sim(program, c);
            auto s = tracer.span("core.run.replay_base");
            baseRes = sim.run();
        }

        t.ipcBaseSum += baseRes.run.ipc();
        t.overheadPctSum += overheadPct(revRes, baseRes);
        t.mispredicts += static_cast<double>(revRes.run.mispredicts);
        t.l1iMisses += static_cast<double>(st.get("sim.l1i.misses"));
        t.l1dMisses += static_cast<double>(st.get("sim.l1d.misses"));
        t.l2Misses += static_cast<double>(st.get("sim.l2.misses"));
        t.scFillAccesses += static_cast<double>(revRes.scFillAccesses);
        t.scFillL2Misses += static_cast<double>(revRes.scFillL2Misses);
        t.scCompleteMisses += static_cast<double>(revRes.rev.scCompleteMisses);
        t.scPartialMisses += static_cast<double>(revRes.rev.scPartialMisses);
        t.scProbes += static_cast<double>(st.get("sim.sc.probes"));
        t.scHits += static_cast<double>(st.get("sim.sc.hits"));
        t.commitStallCycles +=
            static_cast<double>(revRes.validation.commitStallCycles);
    }
    return t;
}

void
reportLayerProbes(const Tracer &tracer, const LayerTotals &t, Report &r)
{
    const double n = t.programs ? t.programs : 1;
    const double cfg = tracer.total("program.buildCfg");
    const double replay = tracer.total("core.run.replay");
    r.metric("workloads.generate_s", tracer.total("workloads.generate"), "s");
    r.metric("program.cfg_s", cfg, "s");
    r.metric("sig.table_build_s", tracer.total("sig.SigStore") - cfg, "s");
    r.metric("crypto.hash_mb_per_s",
             t.hashBytes / 1e6 / tracer.total("crypto.bbHashBytes"), "MB/s");
    r.metric("sig.table_bytes", t.tableBytes, "count");
    r.metric("core.record_s", tracer.total("core.run.record"), "s");
    r.metric("core.replay_s", replay, "s");
    r.metric("program.exec_s", tracer.total("core.run.direct") - replay, "s");
    r.metric("validate.host_s", replay - tracer.total("core.run.replay_base"),
             "s");
    r.metric("cpu.ipc.base", t.ipcBaseSum / n, "1");
    r.metric("validate.rev_overhead_pct", t.overheadPctSum / n, "%");
    r.metric("cpu.mispredicts", t.mispredicts, "count");
    r.metric("mem.l1i_miss", t.l1iMisses, "count");
    r.metric("mem.l1d_miss", t.l1dMisses, "count");
    r.metric("mem.l2_miss", t.l2Misses, "count");
    r.metric("mem.sc_fill.accesses", t.scFillAccesses, "count");
    r.metric("mem.sc_fill.l2_miss", t.scFillL2Misses, "count");
    r.metric("validate.sc_miss.complete", t.scCompleteMisses, "count");
    r.metric("validate.sc_miss.partial", t.scPartialMisses, "count");
    r.metric("validate.sc_hit_ratio", t.scProbes ? t.scHits / t.scProbes : 0,
             "1");
    r.metric("validate.commit_stall_cycles", t.commitStallCycles, "count");
}

} // namespace perfbench
