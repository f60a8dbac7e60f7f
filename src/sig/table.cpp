#include "sig/table.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "crypto/cubehash.hpp"
#include "crypto/cubehash_lanes.hpp"
#include "program/program.hpp"

namespace rev::sig
{

using prog::BasicBlock;
using prog::TermKind;

namespace
{

/** Record kinds (low two bits of byte 0). */
constexpr u8 kRecPrimary = 1;
constexpr u8 kRecCont = 2;

/** Base against which target/predecessor slots are encoded. */
constexpr Addr kSlotBase = prog::kDefaultCodeBase;

void
put24(u8 *p, u32 v)
{
    REV_ASSERT(v < (1u << 24), "value does not fit in 24 bits: ", v);
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
    p[2] = static_cast<u8>(v >> 16);
}

u32
get24(const u8 *p)
{
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16);
}

void
put32(u8 *p, u32 v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

u32
get32(const u8 *p)
{
    u32 v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Encode an absolute target/predecessor address as a 24-bit slot. */
u32
slotEncode(Addr addr)
{
    REV_ASSERT(addr >= kSlotBase, "slot address below code base");
    const u64 off = addr - kSlotBase + 1;
    REV_ASSERT(off < (1u << 24), "slot address out of 24-bit range");
    return static_cast<u32>(off);
}

Addr
slotDecode(u32 slot)
{
    return kSlotBase + slot - 1;
}

/**
 * One validation unit before packing. Target/predecessor sets are borrowed
 * from the CFG's BasicBlock vectors (never copied — buildTable is on the
 * sweep's proto-build critical path); CFI-only entries carry their single
 * target inline instead.
 */
struct Logical
{
    u32 termOff;
    u32 startOff;
    TermKind kind;
    u32 hash;
    Addr cfiTarget;                          ///< CfiOnly: the one target
    const std::vector<Addr> *targets;        ///< nullptr = none
    const std::vector<Addr> *preds;          ///< nullptr = none
};

const std::vector<Addr> kNoAddrs;

/** Slots available per continuation record. */
unsigned
contSlots(ValidationMode mode)
{
    return mode == ValidationMode::Aggressive ? 4 : 2;
}

/** Byte offsets of continuation slots. */
const unsigned *
contSlotOffsets(ValidationMode mode)
{
    static const unsigned full_off[] = {1, 4};
    static const unsigned agg_off[] = {1, 4, 11, 14};
    return mode == ValidationMode::Aggressive ? agg_off : full_off;
}

/** Position of the "next" field within a record (all modes). */
constexpr unsigned kNextFieldOffset = 8;

} // namespace

unsigned
recordSize(ValidationMode mode)
{
    switch (mode) {
      case ValidationMode::Full:
        return 11;
      case ValidationMode::Aggressive:
        return 17;
      case ValidationMode::CfiOnly:
        return 12;
    }
    panic("bad mode");
}

u32
bbHashBytes(const u8 *code, std::size_t len, Addr start, Addr term,
            unsigned hash_rounds)
{
    crypto::CubeHash h(hash_rounds);
    h.update(code, len);
    u8 bind[16];
    for (int i = 0; i < 8; ++i) {
        bind[i] = static_cast<u8>(start >> (8 * i));
        bind[8 + i] = static_cast<u8>(term >> (8 * i));
    }
    h.update(bind, sizeof(bind));
    return crypto::CubeHash::signature32(h.finalize());
}

void
bbHashBatch(const BbHashJob *jobs, unsigned n, unsigned hash_rounds,
            u32 *out)
{
    // Each lane's message is code || 16-byte (start, term) binding, same
    // bytes bbHashBytes absorbs. The concatenation is staged in reused
    // per-thread scratch so CubeHashX4 sees one contiguous message.
    thread_local std::vector<u8> scratch[crypto::CubeHashX4::kLanes];
    REV_ASSERT(n >= 1 && n <= crypto::CubeHashX4::kLanes,
               "bbHashBatch: 1..4 jobs");
    crypto::CubeHashX4::Msg msgs[crypto::CubeHashX4::kLanes];
    for (unsigned i = 0; i < n; ++i) {
        auto &buf = scratch[i];
        buf.assign(jobs[i].code, jobs[i].code + jobs[i].len);
        for (int b = 0; b < 8; ++b) {
            buf.push_back(static_cast<u8>(jobs[i].start >> (8 * b)));
        }
        for (int b = 0; b < 8; ++b) {
            buf.push_back(static_cast<u8>(jobs[i].term >> (8 * b)));
        }
        msgs[i] = {buf.data(), buf.size()};
    }
    crypto::CubeHashX4 hx(hash_rounds);
    crypto::Digest digests[crypto::CubeHashX4::kLanes];
    hx.hashBatch(msgs, n, digests);
    for (unsigned i = 0; i < n; ++i)
        out[i] = crypto::CubeHash::signature32(digests[i]);
}

u32
bbHash(const prog::Module &mod, const prog::BasicBlock &bb,
       unsigned hash_rounds)
{
    REV_ASSERT(bb.start >= mod.base && bb.end <= mod.codeEnd(),
               "bbHash: block outside module code");
    return bbHashBytes(mod.image.data() + (bb.start - mod.base),
                       bb.sizeBytes(), bb.start, bb.term, hash_rounds);
}

BuiltTable
buildTable(const prog::Module &mod, const prog::Cfg &cfg,
           ValidationMode mode, const crypto::KeyVault &vault,
           const crypto::AesKey &module_key, u64 nonce,
           unsigned hash_rounds, const std::vector<u32> *block_hashes)
{
    REV_ASSERT(!block_hashes ||
                   block_hashes->size() == cfg.blocks().size(),
               "buildTable: block-hash vector does not match the CFG");
    const unsigned rs = recordSize(mode);

    // ---- collect logical entries -----------------------------------------
    std::vector<Logical> entries;
    entries.reserve(cfg.blocks().size());
    if (mode == ValidationMode::CfiOnly) {
        // One (site, target) record per legitimate transfer of computed
        // sites and returns; code hashes are not validated (Sec. V.D).
        // Blocks sharing a terminator share its targets: emit them once,
        // at the terminator's first block.
        for (const auto &bb : cfg.blocks()) {
            if (!termIsComputed(bb.kind) && bb.kind != TermKind::Return)
                continue;
            if (cfg.blocksAtTerm(bb.term).front() != bb.id)
                continue;
            for (Addr t : bb.succs) {
                Logical e{};
                e.termOff = static_cast<u32>(bb.term - mod.base);
                e.kind = bb.kind;
                e.cfiTarget = t;
                entries.push_back(e);
            }
        }
    } else {
        for (std::size_t i = 0; i < cfg.blocks().size(); ++i) {
            const auto &bb = cfg.blocks()[i];
            Logical e{};
            e.termOff = static_cast<u32>(bb.term - mod.base);
            e.startOff = static_cast<u32>(bb.start - mod.base);
            e.kind = bb.kind;
            e.hash = block_hashes ? (*block_hashes)[i]
                                  : bbHash(mod, bb, hash_rounds);
            if (mode == ValidationMode::Aggressive) {
                // Verify every branch target explicitly (returns are
                // still validated via predecessors, Sec. V.A).
                if (bb.kind != TermKind::Return)
                    e.targets = &bb.succs;
            } else if (termIsComputed(bb.kind)) {
                e.targets = &bb.succs;
            }
            e.preds = &bb.retPreds;
            entries.push_back(e);
        }
    }

    // ---- bucketize --------------------------------------------------------
    u64 buckets_wanted = std::max<u64>(1, (entries.size() * 17) / 20);
    if (buckets_wanted % 2 == 0)
        ++buckets_wanted; // odd modulus spreads sequential offsets
    const u32 P = static_cast<u32>(buckets_wanted);

    // Stable counting sort into one flat array (entry order within a
    // bucket is part of the table layout).
    std::vector<u32> bucket_begin(P + 1, 0);
    for (const auto &e : entries)
        ++bucket_begin[e.termOff % P + 1];
    for (u32 b = 0; b < P; ++b)
        bucket_begin[b + 1] += bucket_begin[b];
    std::vector<const Logical *> bucketed(entries.size());
    {
        std::vector<u32> cursor(bucket_begin.begin(), bucket_begin.end() - 1);
        for (const auto &e : entries)
            bucketed[cursor[e.termOff % P]++] = &e;
    }

    // ---- emit records ------------------------------------------------------
    // Record index i (1-based) lives at byte (i-1)*rs; indices 1..P are the
    // bucket slots themselves; overflow records follow. A bucket's first
    // entry sits directly in its slot, so the common SC miss costs one
    // memory access.
    std::vector<u8> records(static_cast<std::size_t>(P) * rs, 0);
    u64 num_records = P, num_cont = 0, max_chain = 0;

    auto emit_overflow = [&]() -> std::size_t {
        records.insert(records.end(), rs, 0);
        ++num_records;
        return records.size() - rs; // byte position
    };

    // Fill one record (primary). Returns overflow slot values.
    auto fill_primary = [&](u8 *rec, const Logical *e,
                            std::vector<u32> &overflow, unsigned &nt) {
        rec[0] = static_cast<u8>(kRecPrimary |
                                 (static_cast<u8>(e->kind) << 2));
        put24(rec + 1, e->termOff);
        if (mode == ValidationMode::CfiOnly) {
            put24(rec + 4, slotEncode(e->cfiTarget));
            nt = 0;
            return;
        }
        put32(rec + 4, e->hash);

        const std::vector<Addr> &targets = e->targets ? *e->targets
                                                      : kNoAddrs;
        const std::vector<Addr> &preds = e->preds ? *e->preds : kNoAddrs;
        std::size_t inline_targets = 0;
        if (mode == ValidationMode::Aggressive) {
            if (!targets.empty())
                put24(rec + 11, slotEncode(targets[0]));
            if (targets.size() > 1)
                put24(rec + 14, slotEncode(targets[1]));
            inline_targets = std::min<std::size_t>(2, targets.size());
        }
        nt = 0;
        for (std::size_t i = inline_targets; i < targets.size(); ++i) {
            overflow.push_back(slotEncode(targets[i]));
            ++nt;
        }
        for (Addr p : preds)
            overflow.push_back(slotEncode(p));
    };

    std::vector<u32> overflow; // reused across entries
    for (u32 b = 0; b < P; ++b) {
        max_chain =
            std::max<u64>(max_chain, bucket_begin[b + 1] - bucket_begin[b]);
        std::size_t prev_pos = ~std::size_t{0}; // record needing a next link
        bool first = true;
        for (u32 bi = bucket_begin[b]; bi < bucket_begin[b + 1]; ++bi) {
            const Logical *e = bucketed[bi];
            overflow.clear();
            unsigned n_extra_targets = 0;

            std::size_t my_pos;
            if (first) {
                my_pos = static_cast<std::size_t>(b) * rs;
                first = false;
            } else {
                my_pos = emit_overflow();
                put24(records.data() + prev_pos + kNextFieldOffset,
                      static_cast<u32>(my_pos / rs) + 1);
            }
            fill_primary(records.data() + my_pos, e, overflow,
                         n_extra_targets);
            prev_pos = my_pos;

            // Continuation (spill) records, chained behind the primary.
            const unsigned per = contSlots(mode);
            const unsigned n_extra_preds =
                static_cast<unsigned>(overflow.size()) - n_extra_targets;
            unsigned done_t = 0, done_p = 0;
            std::size_t taken = 0;
            while (taken < overflow.size()) {
                const std::size_t cont_pos = emit_overflow();
                ++num_cont;
                put24(records.data() + prev_pos + kNextFieldOffset,
                      static_cast<u32>(cont_pos / rs) + 1);
                u8 *cont = records.data() + cont_pos;
                const unsigned nt =
                    static_cast<unsigned>(std::min<std::size_t>(
                        per, n_extra_targets - done_t));
                const unsigned np =
                    static_cast<unsigned>(std::min<std::size_t>(
                        per - nt, n_extra_preds - done_p));
                if (mode == ValidationMode::Aggressive)
                    cont[0] =
                        static_cast<u8>(kRecCont | (nt << 2) | (np << 5));
                else
                    cont[0] =
                        static_cast<u8>(kRecCont | (nt << 2) | (np << 4));
                const unsigned *slot_off = contSlotOffsets(mode);
                for (unsigned s = 0; s < nt + np; ++s)
                    put24(cont + slot_off[s], overflow[taken + s]);
                done_t += nt;
                done_p += np;
                taken += nt + np;
                prev_pos = cont_pos;
            }
        }
    }

    // ---- hash-uniqueness accounting (Sec. V.B note) -----------------------
    u64 hash_dups = 0;
    if (mode != ValidationMode::CfiOnly) {
        std::vector<u32> hashes;
        hashes.reserve(entries.size());
        for (const auto &e : entries)
            hashes.push_back(e.hash);
        std::sort(hashes.begin(), hashes.end());
        for (std::size_t i = 1; i < hashes.size(); ++i)
            hash_dups += hashes[i] == hashes[i - 1];
    }

    // ---- assemble and encrypt ---------------------------------------------
    std::vector<u8> body = std::move(records);
    crypto::Aes128 cipher(module_key);
    cipher.ctrCrypt(body, nonce);

    BuiltTable out;
    out.bytes.resize(kHeaderBytes, 0);
    u8 *hdr = out.bytes.data();
    std::memcpy(hdr, "RSIG", 4);
    hdr[4] = static_cast<u8>(mode);
    hdr[5] = static_cast<u8>(hash_rounds);
    hdr[6] = static_cast<u8>(rs);
    hdr[7] = static_cast<u8>(rs >> 8);
    put32(hdr + 8, P);
    put32(hdr + 12, static_cast<u32>(num_records));
    for (int i = 0; i < 8; ++i)
        hdr[16 + i] = static_cast<u8>(nonce >> (8 * i));
    const crypto::WrappedKey wrapped = vault.wrap(module_key);
    std::memcpy(hdr + 24, wrapped.data(), wrapped.size());
    put32(hdr + 56,
          static_cast<u32>(kHeaderBytes + body.size()));

    out.bytes.insert(out.bytes.end(), body.begin(), body.end());

    out.stats.logicalEntries = entries.size();
    out.stats.primaryRecords = entries.size();
    out.stats.contRecords = num_cont;
    out.stats.numBuckets = P;
    out.stats.sizeBytes = out.bytes.size();
    out.stats.maxChainLength = max_chain;
    out.stats.hashDuplicates = hash_dups;
    return out;
}

// ---------------------------------------------------------------------------
// TableReader
// ---------------------------------------------------------------------------

TableReader::TableReader(const SparseMemory &mem, Addr table_base,
                         const crypto::KeyVault &vault)
    : mem_(mem), base_(table_base)
{
    u8 hdr[kHeaderBytes];
    mem_.readBytes(base_, hdr, sizeof(hdr));
    if (std::memcmp(hdr, "RSIG", 4) != 0)
        return;
    if (hdr[4] > static_cast<u8>(ValidationMode::CfiOnly))
        return;
    mode_ = static_cast<ValidationMode>(hdr[4]);
    hashRounds_ = hdr[5];
    numBuckets_ = get32(hdr + 8);
    numRecords_ = get32(hdr + 12);
    nonce_ = 0;
    for (int i = 7; i >= 0; --i)
        nonce_ = (nonce_ << 8) | hdr[16 + i];

    crypto::WrappedKey wrapped;
    std::memcpy(wrapped.data(), hdr + 24, wrapped.size());
    const auto key = vault.unwrap(wrapped);
    if (!key || numBuckets_ == 0)
        return;
    cipher_.emplace(*key);
    valid_ = true;
}

const u8 *
TableReader::keystreamBlock(u64 counter) const
{
    auto [it, fresh] = keystream_.try_emplace(counter);
    if (fresh) {
        u8 *ks = it->second.data();
        for (int i = 0; i < 8; ++i) {
            ks[i] = static_cast<u8>(nonce_ >> (8 * i));
            ks[8 + i] = static_cast<u8>(counter >> (8 * i));
        }
        cipher_->encryptBlock(ks);
    }
    return it->second.data();
}

void
TableReader::readDec(u64 off, u8 *out, std::size_t len) const
{
    mem_.readBytes(base_ + off, out, len);
    // Equivalent to cipher_->ctrCryptAt(out, len, nonce_, off -
    // kHeaderBytes), but with the keystream blocks memoized — table
    // walks revisit the same slots constantly and the AES work depends
    // only on the stream position, not the ciphertext.
    std::size_t done = 0;
    while (done < len) {
        const u64 stream_pos = off - kHeaderBytes + done;
        const unsigned skip = static_cast<unsigned>(stream_pos % 16);
        const u8 *ks = keystreamBlock(stream_pos / 16);
        const std::size_t take = std::min<std::size_t>(16 - skip, len - done);
        for (std::size_t i = 0; i < take; ++i)
            out[done + i] ^= ks[skip + i];
        done += take;
    }
}

LookupResult
TableReader::lookup(Addr term, u32 hash, Addr module_base,
                    const WalkNeeds *needs) const
{
    LookupResult res;
    REV_ASSERT(valid_, "lookup on invalid table");
    REV_ASSERT(mode_ != ValidationMode::CfiOnly,
               "use lookupSite for CFI-only tables");

    const unsigned rs = recordSize(mode_);
    const u32 term_off = static_cast<u32>(term - module_base);

    auto satisfied = [&]() {
        if (!needs)
            return false;
        const bool t_ok =
            !needs->target ||
            std::find(res.targets.begin(), res.targets.end(),
                      *needs->target) != res.targets.end();
        const bool p_ok =
            !needs->pred ||
            std::find(res.retPreds.begin(), res.retPreds.end(),
                      *needs->pred) != res.retPreds.end();
        return t_ok && p_ok;
    };

    u32 idx = static_cast<u32>(term_off % numBuckets_) + 1;
    u64 steps = 0;
    while (idx != 0 && idx <= numRecords_ && steps++ <= numRecords_) {
        const u64 off = kHeaderBytes + u64{idx - 1} * rs;
        res.memAddrs.push_back(base_ + off);
        u8 rec[24];
        readDec(off, rec, rs);

        const u8 kind = rec[0] & 3;
        if (kind == 0)
            break; // empty bucket slot: no entry for this block
        if (kind == kRecCont) {
            // Another entry's spill record in the chain: skip over it.
            idx = get24(rec + kNextFieldOffset);
            continue;
        }

        if (get24(rec + 1) == term_off) {
            // Sec. V.B: the generated hash is the discriminator among
            // validation units sharing a terminator.
            res.termSeen = true;
            if (get32(rec + 4) == hash) {
                res.found = true;
                res.termKind = static_cast<TermKind>((rec[0] >> 2) & 7);
                res.hash = hash;
                if (mode_ == ValidationMode::Aggressive) {
                    if (const u32 s0 = get24(rec + 11))
                        res.targets.push_back(slotDecode(s0));
                    if (const u32 s1 = get24(rec + 14))
                        res.targets.push_back(slotDecode(s1));
                }
                // Walk this entry's spill records (until satisfied).
                // Corrupt chains are bounded: a tampered "next" pointer
                // must not be able to hang the walker (fail-closed).
                u32 cont_idx = get24(rec + kNextFieldOffset);
                u64 cont_steps = 0;
                while (!satisfied() && cont_idx != 0 &&
                       cont_idx <= numRecords_ &&
                       cont_steps++ <= numRecords_) {
                    const u64 coff = kHeaderBytes + u64{cont_idx - 1} * rs;
                    res.memAddrs.push_back(base_ + coff);
                    u8 cont[24];
                    readDec(coff, cont, rs);
                    if ((cont[0] & 3) != kRecCont)
                        break; // next entry in the bucket chain
                    unsigned nt, np;
                    if (mode_ == ValidationMode::Aggressive) {
                        nt = (cont[0] >> 2) & 7;
                        np = (cont[0] >> 5) & 7;
                    } else {
                        nt = (cont[0] >> 2) & 3;
                        np = (cont[0] >> 4) & 3;
                    }
                    const unsigned *slot_off = contSlotOffsets(mode_);
                    // A tampered count byte can decode more slots than
                    // the record carries; the builder never emits more
                    // than contSlots(), so the clamp is a no-op for
                    // intact tables and bounds the walk for corrupt ones.
                    const unsigned max_slots = contSlots(mode_);
                    if (nt > max_slots)
                        nt = max_slots;
                    if (np > max_slots - nt)
                        np = max_slots - nt;
                    for (unsigned sidx = 0; sidx < nt + np; ++sidx) {
                        const Addr a =
                            slotDecode(get24(cont + slot_off[sidx]));
                        if (sidx < nt)
                            res.targets.push_back(a);
                        else
                            res.retPreds.push_back(a);
                    }
                    cont_idx = get24(cont + kNextFieldOffset);
                }
                return res;
            }
        }
        idx = get24(rec + kNextFieldOffset);
    }
    return res;
}

LookupResult
TableReader::lookupSite(Addr term, Addr module_base,
                        const WalkNeeds *needs) const
{
    LookupResult res;
    REV_ASSERT(valid_, "lookupSite on invalid table");
    REV_ASSERT(mode_ == ValidationMode::CfiOnly,
               "lookupSite only for CFI-only tables");

    const unsigned rs = recordSize(mode_);
    const u32 term_off = static_cast<u32>(term - module_base);

    u32 idx = static_cast<u32>(term_off % numBuckets_) + 1;
    u64 steps = 0;
    while (idx != 0 && idx <= numRecords_ && steps++ <= numRecords_) {
        const u64 off = kHeaderBytes + u64{idx - 1} * rs;
        res.memAddrs.push_back(base_ + off);
        u8 rec[12];
        readDec(off, rec, rs);
        const u8 kind = rec[0] & 3;
        if (kind == 0)
            break;
        if (kind == kRecPrimary && get24(rec + 1) == term_off) {
            res.found = true;
            res.termKind = static_cast<TermKind>((rec[0] >> 2) & 7);
            res.targets.push_back(slotDecode(get24(rec + 4)));
            if (needs && needs->target &&
                std::find(res.targets.begin(), res.targets.end(),
                          *needs->target) != res.targets.end()) {
                return res;
            }
        }
        idx = get24(rec + kNextFieldOffset);
    }
    return res;
}

} // namespace rev::sig
