/**
 * @file
 * Output pins for the table toolchain: FNV-1a digests of reference CFGs
 * and of the loaded signature-table images.
 *
 * The digests were captured from the byte-wise AES and hash-indexed CFG
 * implementation and must not move: any change to block order, a
 * successor or RET-predecessor list (including their order), a table
 * byte or a table's placement changes them. Three SPEC stand-ins pin the
 * single-module path at the default seeds in all three modes; a
 * two-module program whose returns cross the module boundary pins the
 * program-wide return linking.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "program/assembler.hpp"
#include "sig/sigstore.hpp"
#include "workloads/generator.hpp"
#include "workloads/profile.hpp"

namespace rev::sig
{
namespace
{

/** FNV-1a 64 over little-endian fields. */
struct Fnv
{
    u64 h = 0xcbf29ce484222325ULL;

    void
    add(u64 v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<u8>(v >> (8 * i));
            h *= 0x100000001b3ULL;
        }
    }

    void
    bytes(const std::vector<u8> &b)
    {
        add(b.size());
        for (u8 x : b) {
            h ^= x;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Digest of every block's (start, term, kind, succs, retPreds), in order. */
u64
cfgDigest(const prog::Cfg &cfg)
{
    Fnv f;
    f.add(cfg.blocks().size());
    for (const prog::BasicBlock &bb : cfg.blocks()) {
        f.add(bb.start);
        f.add(bb.term);
        f.add(static_cast<u64>(bb.kind));
        f.add(bb.succs.size());
        for (Addr s : bb.succs)
            f.add(s);
        f.add(bb.retPreds.size());
        for (Addr p : bb.retPreds)
            f.add(p);
    }
    return f.h;
}

/** The table images of @p store as loaded into RAM, with their bases. */
std::vector<std::vector<u8>>
tableImages(const SigStore &store)
{
    SparseMemory mem;
    store.loadInto(mem);
    std::vector<std::vector<u8>> out;
    for (const ModuleSig &ms : store.moduleSigs()) {
        std::vector<u8> img(ms.stats.sizeBytes);
        mem.readBytes(ms.tableBase, img.data(), img.size());
        out.push_back(std::move(img));
    }
    return out;
}

u64
imageDigest(const SigStore &store)
{
    Fnv f;
    for (std::size_t i = 0; i < store.moduleSigs().size(); ++i)
        f.add(store.moduleSigs()[i].tableBase);
    for (const auto &img : tableImages(store))
        f.bytes(img);
    return f.h;
}

std::string
hex(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

#define EXPECT_DIGEST(actual, pinned)                                       \
    EXPECT_EQ(hex(actual), hex(pinned))

/** Pinned digests of one stand-in. */
struct StandInPin
{
    const char *name;
    u64 cfg;
    u64 full;
    u64 aggressive;
    u64 cfiOnly;
};

const StandInPin kStandIns[] = {
    {"bzip2", 0x2a21d657fc31dcbfULL, 0xce715fdf5627a2b8ULL,
     0x26d399e6f2102f52ULL, 0x70cecc42604fc36aULL},
    {"mcf", 0xe5429f67eca1e37fULL, 0x9e687b0b01db4316ULL,
     0xaa776c48ebc24338ULL, 0x4bf8a197abdc7decULL},
    {"gcc", 0x82a7c4f9dfca42d4ULL, 0x5200413acd963b54ULL,
     0x8e4e38806e524fccULL, 0x30b137bf8a4f9c95ULL},
};

/** SimConfig's default cpuSeed / toolchainSeed. */
constexpr u64 kDefaultSeed = 1;

TEST(SigDigest, StandInCfgsAndTablesArePinned)
{
    const crypto::KeyVault vault(kDefaultSeed);
    for (const StandInPin &pin : kStandIns) {
        SCOPED_TRACE(pin.name);
        const prog::Program program =
            workloads::generateWorkload(workloads::specProfile(pin.name));
        ASSERT_EQ(program.modules().size(), 1u);

        EXPECT_DIGEST(cfgDigest(prog::buildCfg(program.main())), pin.cfg);

        // Built as the sweep builds them: Full first, the others from it.
        const SigStore full(program, ValidationMode::Full, vault,
                            kDefaultSeed);
        const SigStore agg(program, ValidationMode::Aggressive, vault,
                           kDefaultSeed, {}, 5, &full);
        const SigStore cfi(program, ValidationMode::CfiOnly, vault,
                           kDefaultSeed, {}, 5, &full);
        EXPECT_DIGEST(cfgDigest(*full.moduleSigs().front().cfg), pin.cfg);
        EXPECT_DIGEST(imageDigest(full), pin.full);
        EXPECT_DIGEST(imageDigest(agg), pin.aggressive);
        EXPECT_DIGEST(imageDigest(cfi), pin.cfiOnly);
    }
}

TEST(SigDigest, SharedAnalysisStoresMatchIndependentBuilds)
{
    // A store that takes its CFGs and block hashes from another store's
    // analysis must be byte-identical to one that derives its own, in
    // every mode and whichever mode donates.
    const crypto::KeyVault vault(kDefaultSeed);
    const prog::Program program =
        workloads::generateWorkload(workloads::specProfile("bzip2"));
    const ValidationMode modes[] = {ValidationMode::Full,
                                    ValidationMode::Aggressive,
                                    ValidationMode::CfiOnly};
    for (ValidationMode donor_mode : modes) {
        const SigStore donor(program, donor_mode, vault, kDefaultSeed);
        for (ValidationMode mode : modes) {
            SCOPED_TRACE(std::string(modeName(donor_mode)) + " -> " +
                         modeName(mode));
            const SigStore own(program, mode, vault, kDefaultSeed);
            const SigStore shared(program, mode, vault, kDefaultSeed, {}, 5,
                                  &donor);
            EXPECT_EQ(tableImages(shared), tableImages(own));
            EXPECT_EQ(shared.totalTableBytes(), own.totalTableBytes());
            EXPECT_EQ(cfgDigest(*shared.moduleSigs().front().cfg),
                      cfgDigest(*own.moduleSigs().front().cfg));
        }
    }
}

/**
 * main calls two library functions through an annotated CALLR and one
 * local function directly; the library functions branch and return, so
 * their RET successor sets hold main's return sites and main's return
 * sites list library RETs as predecessors.
 */
prog::Program
makeCrossModuleProgram()
{
    prog::Program p;
    Addr site1 = 0, site2 = 0;
    {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(1, 1);
        site1 = a.callr(2);
        a.addi(1, 1, 1);
        a.call("local");
        site2 = a.callr(3);
        a.beq(1, 0, "main");
        a.halt();
        a.label("local");
        a.addi(4, 4, 1);
        a.ret();
        p.addModule(a.finalize("main", "main"));
    }
    {
        prog::Assembler a(p.nextModuleBase());
        a.label("libfn");
        a.addi(1, 1, 7);
        a.bne(1, 0, "libtail");
        a.ret();
        a.label("libtail");
        a.addi(1, 1, 2);
        a.ret();
        a.label("libfn2");
        a.call("libfn");
        a.ret();
        p.addModule(a.finalize("lib", "libfn"));
    }
    const prog::Module &lib = p.modules()[1];
    p.modules()[0].indirectTargets[site1] = {lib.symbol("libfn"),
                                             lib.symbol("libfn2")};
    p.modules()[0].indirectTargets[site2] = {lib.symbol("libfn2")};
    return p;
}

TEST(SigDigest, CrossModuleLinkingIsPinned)
{
    const prog::Program program = makeCrossModuleProgram();
    ASSERT_EQ(program.modules().size(), 2u);

    // Each module linked in isolation: returns reach only local sites.
    EXPECT_DIGEST(cfgDigest(prog::buildCfg(program.modules()[0])),
                  0xa06dff1e3fb7309aULL);
    EXPECT_DIGEST(cfgDigest(prog::buildCfg(program.modules()[1])),
                  0x0eb15f59c8d13658ULL);

    // Linked program-wide by the store.
    const crypto::KeyVault vault(kDefaultSeed);
    const SigStore full(program, ValidationMode::Full, vault, kDefaultSeed);
    const SigStore agg(program, ValidationMode::Aggressive, vault,
                       kDefaultSeed, {}, 5, &full);
    const SigStore cfi(program, ValidationMode::CfiOnly, vault,
                       kDefaultSeed, {}, 5, &full);
    EXPECT_DIGEST(cfgDigest(*full.moduleSigs()[0].cfg), 0x60d5bb75b076add0ULL);
    EXPECT_DIGEST(cfgDigest(*full.moduleSigs()[1].cfg), 0x4dcd913ee59dfa14ULL);
    EXPECT_DIGEST(imageDigest(full), 0x18d701758e3e6154ULL);
    EXPECT_DIGEST(imageDigest(agg), 0x59c97cb9c73eb16aULL);
    EXPECT_DIGEST(imageDigest(cfi), 0x65a73ec429f0408aULL);

    // A lib RET really is linked to a site in main.
    const Addr main_lo = program.modules()[0].base;
    const Addr main_hi = program.modules()[0].codeEnd();
    bool crosses = false;
    for (const prog::BasicBlock &bb : full.moduleSigs()[1].cfg->blocks())
        if (bb.kind == prog::TermKind::Return)
            for (Addr s : bb.succs)
                crosses = crosses || (s >= main_lo && s < main_hi);
    EXPECT_TRUE(crosses);
}

} // namespace
} // namespace rev::sig
