#include "program/cfg.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "isa/codec.hpp"

namespace rev::prog
{

using isa::Instr;
using isa::InstrClass;

namespace
{

TermKind
termKindOf(InstrClass c)
{
    switch (c) {
      case InstrClass::Branch:
        return TermKind::Branch;
      case InstrClass::Jump:
        return TermKind::Jump;
      case InstrClass::Call:
        return TermKind::Call;
      case InstrClass::CallIndirect:
        return TermKind::CallIndirect;
      case InstrClass::JumpIndirect:
        return TermKind::JumpIndirect;
      case InstrClass::Return:
        return TermKind::Return;
      case InstrClass::Halt:
        return TermKind::Halt;
      default:
        panic("termKindOf: not a control-flow class");
    }
}

} // namespace

const BasicBlock *
Cfg::blockAtStart(Addr start) const
{
    const auto it = std::lower_bound(starts_.begin(), starts_.end(), start);
    if (it == starts_.end() || *it != start)
        return nullptr;
    return &blocks_[startIds_[it - starts_.begin()]];
}

std::span<const u32>
Cfg::blocksAtTerm(Addr term) const
{
    const auto [lo, hi] = std::equal_range(terms_.begin(), terms_.end(), term);
    return {termIds_.data() + (lo - terms_.begin()),
            static_cast<std::size_t>(hi - lo)};
}

CfgStats
Cfg::stats() const
{
    CfgStats s;
    s.numBlocks = blocks_.size();
    u64 instrs = 0, succs = 0;
    for (const auto &bb : blocks_) {
        instrs += bb.numInstrs;
        succs += bb.succs.size();
    }
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        if (i > 0 && terms_[i] == terms_[i - 1])
            continue;
        ++s.numTerminators;
        if (termIsComputed(blocks_[termIds_[i]].kind))
            ++s.numComputedSites;
    }
    s.numBranchInstrs = s.numTerminators;
    if (!blocks_.empty()) {
        s.avgInstrsPerBlock = static_cast<double>(instrs) / blocks_.size();
        s.avgSuccsPerBlock = static_cast<double>(succs) / blocks_.size();
    }
    return s;
}

Cfg
Cfg::derive(const Module &mod, const SplitLimits &limits)
{
    Cfg cfg;
    cfg.limits_ = limits;

    // ---- pass 1: linear decode of the code region -----------------------
    // The code region is contiguous, so flat offset-indexed arrays replace
    // tree searches on the per-instruction hot paths below. Each
    // instruction start records its length and a class byte; the walks
    // below never decode again except at terminators.
    constexpr u8 kWritesMem = 0x80;
    const std::size_t code_size = mod.codeSize;
    std::vector<u8> len_at(code_size, 0); ///< 0: not an instruction start
    std::vector<u8> info_at(code_size);   ///< InstrClass | kWritesMem
    std::vector<u8> is_leader(code_size, 0);
    std::vector<Addr> direct_targets; ///< of branches/jumps/calls, in order
    auto decode_at = [&](std::size_t off) {
        auto ins = isa::decode(mod.image.data() + off, code_size - off);
        if (!ins)
            fatal("buildCfg: undecodable code in '", mod.name,
                  "' at offset ", off);
        return *ins;
    };
    for (std::size_t off = 0; off < code_size;) {
        const Instr ins = decode_at(off);
        const InstrClass k = ins.klass();
        const unsigned len = ins.length();
        len_at[off] = static_cast<u8>(len);
        info_at[off] =
            static_cast<u8>(static_cast<u8>(k) | (ins.writesMem() ? kWritesMem : 0));
        if (k == InstrClass::Branch || k == InstrClass::Jump ||
            k == InstrClass::Call)
            direct_targets.push_back(ins.directTarget(mod.base + off));
        // A control transfer's fall-through (the next instruction, if
        // any) starts a block.
        if (isa::classIsControlFlow(k) && off + len < code_size)
            is_leader[off + len] = 1;
        off += len;
    }

    auto instr_exists = [&](Addr a) {
        return a >= mod.base && a < mod.codeEnd() && len_at[a - mod.base];
    };

    // ---- pass 2: leader discovery ---------------------------------------
    auto add_leader = [&](Addr a, const char *why) {
        if (!instr_exists(a))
            fatal("buildCfg: '", mod.name, "': ", why, " target 0x",
                  std::hex, a, " is not an instruction boundary");
        is_leader[a - mod.base] = 1;
    };

    if (mod.codeSize > 0)
        add_leader(mod.entry, "entry");
    for (Addr t : direct_targets)
        add_leader(t, "direct branch");
    for (const auto &[site, targets] : mod.indirectTargets) {
        if (!instr_exists(site))
            fatal("buildCfg: '", mod.name, "': indirect annotation site 0x",
                  std::hex, site, " is not an instruction");
        for (Addr t : targets) {
            // Cross-module targets are resolved by the callee module's
            // own CFG; only intra-module targets become leaders here.
            if (t >= mod.base && t < mod.codeEnd())
                add_leader(t, "annotated indirect");
        }
    }

    // ---- pass 3: walk each leader to its terminator ----------------------
    // Walking may create artificial-split fall-through leaders; use a
    // worklist. Leaders seed it in ascending address order (block IDs — and
    // thus table layout — depend on it). Every start enters the worklist
    // once: split fall-throughs only when not already queued.
    std::vector<Addr> work;
    std::vector<u8> queued = is_leader;
    for (std::size_t off = 0; off < code_size; ++off)
        if (is_leader[off])
            work.push_back(mod.base + off);
    cfg.blocks_.reserve(work.size());

    for (std::size_t w = 0; w < work.size(); ++w) {
        BasicBlock bb;
        bb.id = static_cast<u32>(cfg.blocks_.size());
        bb.start = work[w];

        Addr pc = bb.start;
        while (true) {
            if (!instr_exists(pc))
                fatal("buildCfg: '", mod.name, "': control falls off the ",
                      "end of code at 0x", std::hex, pc);
            const std::size_t off = pc - mod.base;
            const InstrClass k = static_cast<InstrClass>(info_at[off] &
                                                         ~kWritesMem);
            ++bb.numInstrs;
            if (info_at[off] & kWritesMem)
                ++bb.numStores;

            if (isa::classIsControlFlow(k)) {
                bb.term = pc;
                bb.end = pc + len_at[off];
                bb.kind = termKindOf(k);
                break;
            }
            if (bb.numInstrs >= limits.maxInstrs ||
                bb.numStores >= limits.maxStores) {
                bb.term = pc;
                bb.end = pc + len_at[off];
                bb.kind = TermKind::Split;
                break;
            }
            pc += len_at[off];
        }

        // Successors are a property of the terminating instruction, so
        // every (suffix) block ending at it gets the same list.
        auto add_succ = [&bb](Addr target) {
            if (std::find(bb.succs.begin(), bb.succs.end(), target) ==
                bb.succs.end())
                bb.succs.push_back(target);
        };
        switch (bb.kind) {
          case TermKind::Branch:
            add_succ(decode_at(bb.term - mod.base).directTarget(bb.term));
            add_succ(bb.end);
            break;
          case TermKind::Jump:
          case TermKind::Call:
            add_succ(decode_at(bb.term - mod.base).directTarget(bb.term));
            break;
          case TermKind::CallIndirect:
          case TermKind::JumpIndirect: {
            auto it = mod.indirectTargets.find(bb.term);
            if (it != mod.indirectTargets.end())
                for (Addr t : it->second)
                    add_succ(t);
            break;
          }
          case TermKind::Split: {
            add_succ(bb.end);
            // A split's fall-through may sit past the code end; queue it
            // anyway so the walk reports the fall-off error.
            const bool in_code =
                bb.end >= mod.base && bb.end < mod.codeEnd();
            if (!in_code || !queued[bb.end - mod.base]) {
                if (in_code)
                    queued[bb.end - mod.base] = 1;
                work.push_back(bb.end);
            }
            break;
          }
          case TermKind::Return:
          case TermKind::Halt:
            break; // returns are linked by linkCfgs; halt has no successor
        }
        cfg.blocks_.push_back(std::move(bb));
    }

    // ---- indices ----------------------------------------------------------
    // Sorted (key, block index) pairs, split into key and index arrays.
    std::vector<std::pair<Addr, u32>> keyed(cfg.blocks_.size());
    auto build_index = [&](auto key_of, std::vector<Addr> &keys,
                           std::vector<u32> &ids) {
        for (const BasicBlock &bb : cfg.blocks_)
            keyed[bb.id] = {key_of(bb), bb.id};
        std::sort(keyed.begin(), keyed.end());
        keys.resize(keyed.size());
        ids.resize(keyed.size());
        for (std::size_t i = 0; i < keyed.size(); ++i) {
            keys[i] = keyed[i].first;
            ids[i] = keyed[i].second;
        }
    };
    build_index([](const BasicBlock &bb) { return bb.start; }, cfg.starts_,
                cfg.startIds_);
    build_index([](const BasicBlock &bb) { return bb.term; }, cfg.terms_,
                cfg.termIds_);
    return cfg;
}

Cfg
buildCfg(const Module &mod, const SplitLimits &limits)
{
    Cfg cfg = Cfg::derive(mod, limits);
    linkCfgs({&cfg});
    return cfg;
}

std::vector<Cfg>
buildCfgs(const std::vector<Module> &modules, const SplitLimits &limits)
{
    std::vector<Cfg> cfgs;
    cfgs.reserve(modules.size());
    std::vector<Cfg *> ptrs;
    for (const Module &mod : modules) {
        cfgs.push_back(Cfg::derive(mod, limits));
        ptrs.push_back(&cfgs.back());
    }
    linkCfgs(ptrs);
    return cfgs;
}

void
linkCfgs(const std::vector<Cfg *> &cfgs)
{
    // Blocks are numbered program-wide: block i of cfgs[k] is node
    // first[k] + i. Module address ranges are disjoint, so a start or a
    // terminator names one block (or terminator group) program-wide.
    std::vector<u32> first(cfgs.size() + 1, 0);
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
        for (auto &bb : cfgs[k]->blocks_) {
            // Reset any previous return-edge information (idempotence).
            if (bb.kind == TermKind::Return)
                bb.succs.clear();
            bb.retPreds.clear();
        }
        first[k + 1] =
            first[k] + static_cast<u32>(cfgs[k]->blocks_.size());
    }
    constexpr u32 kNone = ~u32{0};

    /** Node of the block starting at @p start; kNone if none. */
    auto node_at = [&](Addr start, BasicBlock **bb) -> u32 {
        for (std::size_t k = 0; k < cfgs.size(); ++k) {
            const Cfg &c = *cfgs[k];
            const auto it =
                std::lower_bound(c.starts_.begin(), c.starts_.end(), start);
            if (it != c.starts_.end() && *it == start) {
                const u32 id = c.startIds_[it - c.starts_.begin()];
                *bb = &cfgs[k]->blocks_[id];
                return first[k] + id;
            }
        }
        return kNone;
    };

    // RET instructions reachable intra-procedurally from a function entry,
    // following edges across modules, memoized per entry node as a range
    // of ret_pool.
    std::vector<Addr> ret_pool;
    std::vector<std::pair<u32, u32>> rets_of(first.back(), {kNone, 0});
    std::vector<u32> visited(first.back(), 0);
    u32 bfs_epoch = 0;
    std::vector<Addr> bfs;
    auto reachable_rets = [&](Addr entry) -> std::pair<u32, u32> {
        BasicBlock *bb = nullptr;
        const u32 root = node_at(entry, &bb);
        if (root == kNone)
            return {0, 0}; // target outside every known module
        if (rets_of[root].first != kNone)
            return rets_of[root];

        const u32 begin = static_cast<u32>(ret_pool.size());
        ++bfs_epoch;
        bfs.assign(1, entry);
        for (std::size_t head = 0; head < bfs.size(); ++head) {
            const u32 node = node_at(bfs[head], &bb);
            if (node == kNone || visited[node] == bfs_epoch)
                continue;
            visited[node] = bfs_epoch;
            switch (bb->kind) {
              case TermKind::Return:
                ret_pool.push_back(bb->term);
                break;
              case TermKind::Halt:
                break;
              case TermKind::Call:
              case TermKind::CallIndirect:
                // Intra-procedural flow resumes at the return site.
                bfs.push_back(bb->end);
                break;
              default:
                bfs.insert(bfs.end(), bb->succs.begin(), bb->succs.end());
                break;
            }
        }
        rets_of[root] = {begin, static_cast<u32>(ret_pool.size())};
        return rets_of[root];
    };

    // Visit every call site once, by terminator address: only the first
    // (lowest-index) block ending at it.
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
        for (const auto &bb : cfgs[k]->blocks_) {
            if (bb.kind != TermKind::Call &&
                bb.kind != TermKind::CallIndirect)
                continue;
            if (cfgs[k]->blocksAtTerm(bb.term).front() != bb.id)
                continue;
            const Addr return_site = bb.end;
            BasicBlock *rb = nullptr;
            if (node_at(return_site, &rb) == kNone)
                continue;
            for (Addr entry : bb.succs) {
                const auto [begin, end] = reachable_rets(entry);
                for (u32 i = begin; i < end; ++i) {
                    const Addr r = ret_pool[i];
                    // The RET may transfer to this call's return site.
                    for (Cfg *c : cfgs) {
                        for (u32 id : c->blocksAtTerm(r)) {
                            auto &succs = c->blocks_[id].succs;
                            if (std::find(succs.begin(), succs.end(),
                                          return_site) == succs.end())
                                succs.push_back(return_site);
                        }
                    }
                    auto &preds = rb->retPreds;
                    if (std::find(preds.begin(), preds.end(), r) ==
                        preds.end())
                        preds.push_back(r);
                }
            }
        }
    }
}

} // namespace rev::prog
