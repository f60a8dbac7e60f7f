#include "sig/sigstore.hpp"

#include <algorithm>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "crypto/cubehash_lanes.hpp"

namespace rev::sig
{

/**
 * The mode-independent half of a program's table build: every module's
 * CFG, derived once and linked program-wide once (the trusted static
 * linker's knowledge, Sec. IV.B). Immutable once built; every store built
 * from it, in any mode, and every copy of such a store share it read-only,
 * together with the block hashes computed from it.
 */
struct ProgramAnalysis
{
    std::vector<const prog::Module *> modules;
    prog::SplitLimits limits;
    std::vector<prog::Cfg> cfgs; ///< per module

    /** Was this analysis derived from exactly @p program's modules? */
    bool
    covers(const prog::Program &program,
           const prog::SplitLimits &split) const
    {
        if (limits != split || modules.size() != program.modules().size())
            return false;
        for (std::size_t i = 0; i < modules.size(); ++i)
            if (modules[i] != &program.modules()[i])
                return false;
        return true;
    }
};

namespace
{

/** bbHash() of every block of @p cfg, four lanes at a time through the
 *  multi-lane CubeHash (bit-identical to bbHash). */
std::vector<u32>
hashBlocks(const prog::Module &mod, const prog::Cfg &cfg, unsigned rounds)
{
    const auto &blocks = cfg.blocks();
    std::vector<u32> hashes(blocks.size());
    BbHashJob jobs[crypto::CubeHashX4::kLanes];
    for (std::size_t b = 0; b < blocks.size();
         b += crypto::CubeHashX4::kLanes) {
        const unsigned n = static_cast<unsigned>(std::min<std::size_t>(
            crypto::CubeHashX4::kLanes, blocks.size() - b));
        for (unsigned l = 0; l < n; ++l) {
            const auto &bb = blocks[b + l];
            REV_ASSERT(bb.start >= mod.base && bb.end <= mod.codeEnd(),
                       "SigStore: block outside module code");
            jobs[l] = {mod.image.data() + (bb.start - mod.base),
                       bb.sizeBytes(), bb.start, bb.term};
        }
        bbHashBatch(jobs, n, rounds, hashes.data() + b);
    }
    return hashes;
}

} // namespace

SigStore::SigStore(const prog::Program &program, ValidationMode mode,
                   const crypto::KeyVault &vault, u64 seed,
                   const prog::SplitLimits &limits, unsigned hash_rounds,
                   const SigStore *cfg_donor)
    : mode_(mode), hashRounds_(hash_rounds), vault_(&vault), seed_(seed),
      limits_(limits)
{
    rebuildWith(program, cfg_donor);
}

void
SigStore::rebuild(const prog::Program &program)
{
    rebuildWith(program, nullptr);
}

void
SigStore::rebuildWith(const prog::Program &program, const SigStore *cfg_donor)
{
    Rng rng(seed_ ^ 0x5167a11eULL ^ (generation_ * 0x9e3779b9ULL));
    ++generation_;

    // The analysis does not depend on the mode, so a donor that analyzed
    // exactly these modules with the same split limits shares its own;
    // block hashes also need the same round count.
    const bool donate =
        cfg_donor && cfg_donor->analysis_->covers(program, limits_);
    if (donate) {
        analysis_ = cfg_donor->analysis_;
        blockHashes_ = cfg_donor->hashRounds_ == hashRounds_
                           ? cfg_donor->blockHashes_
                           : nullptr;
    } else {
        auto analysis = std::make_shared<ProgramAnalysis>();
        for (const auto &mod : program.modules())
            analysis->modules.push_back(&mod);
        analysis->limits = limits_;
        analysis->cfgs = prog::buildCfgs(program.modules(), limits_);
        analysis_ = std::move(analysis);
        blockHashes_ = nullptr;
    }
    if (mode_ != ValidationMode::CfiOnly && !blockHashes_) {
        auto hashes = std::make_shared<std::vector<std::vector<u32>>>();
        for (std::size_t i = 0; i < analysis_->cfgs.size(); ++i)
            hashes->push_back(hashBlocks(*analysis_->modules[i],
                                         analysis_->cfgs[i], hashRounds_));
        blockHashes_ = std::move(hashes);
    }

    sigs_.clear();
    auto images = std::make_shared<std::vector<std::vector<u8>>>();
    Addr next_base = kSigTableRegion;
    for (std::size_t i = 0; i < analysis_->cfgs.size(); ++i) {
        ModuleSig sig;
        sig.module = analysis_->modules[i];
        sig.cfg = &analysis_->cfgs[i];
        const crypto::AesKey key = vault_->generateModuleKey(rng);
        const u64 nonce = rng.next();
        BuiltTable built = buildTable(
            *sig.module, *sig.cfg, mode_, *vault_, key, nonce, hashRounds_,
            blockHashes_ ? &(*blockHashes_)[i] : nullptr);
        sig.tableBase = next_base;
        sig.stats = built.stats;
        next_base = roundUp(next_base + built.bytes.size() + 0x100, 0x40);
        sigs_.push_back(sig);
        images->push_back(std::move(built.bytes));
    }
    images_ = std::move(images);
}

void
SigStore::loadInto(SparseMemory &mem) const
{
    for (std::size_t i = 0; i < sigs_.size(); ++i)
        mem.writeBytes(sigs_[i].tableBase, (*images_)[i]);
}

const ModuleSig *
SigStore::findByCode(Addr addr) const
{
    for (const auto &sig : sigs_)
        if (sig.module->containsCode(addr))
            return &sig;
    return nullptr;
}

u64
SigStore::totalTableBytes() const
{
    u64 total = 0;
    for (const auto &img : *images_)
        total += img.size();
    return total;
}

} // namespace rev::sig
