#include "perf_naive.h"

#include <algorithm>
#include <utility>

namespace sbhbm::bench {

using columnar::Bundle;
using columnar::BundleHandle;
using columnar::ColumnId;
using columnar::KpEntry;
using kpa::Ctx;
using kpa::Kpa;
using kpa::KpaPtr;
using kpa::Placement;
using kpa::RangePartition;

std::vector<RangePartition>
naivePartitionByRange(Ctx ctx, const Kpa &src, uint64_t range_width,
                      Placement place)
{
    std::vector<std::pair<uint64_t, uint32_t>> counts;
    const KpEntry *e = src.entries();
    for (uint32_t i = 0; i < src.size(); ++i) {
        const uint64_t rg = e[i].key / range_width;
        auto it =
            std::find_if(counts.begin(), counts.end(),
                         [rg](const auto &p) { return p.first == rg; });
        if (it == counts.end())
            counts.emplace_back(rg, 1);
        else
            ++it->second;
    }
    std::sort(counts.begin(), counts.end());

    std::vector<RangePartition> out;
    out.reserve(counts.size());
    for (const auto &[rg, n] : counts) {
        RangePartition rp;
        rp.range = rg;
        rp.part = Kpa::create(ctx.hm, n, ctx.place(place));
        rp.part->setResidentColumn(src.residentColumn());
        rp.part->adoptSourcesFrom(src);
        out.push_back(std::move(rp));
    }
    for (uint32_t i = 0; i < src.size(); ++i) {
        const uint64_t rg = e[i].key / range_width;
        for (auto &rp : out) {
            if (rp.range == rg) {
                rp.part->push(e[i].key, e[i].row);
                break;
            }
        }
    }
    for (auto &rp : out)
        rp.part->setSorted(src.sorted());
    return out;
}

BundleHandle
naiveJoin(Ctx ctx, const Kpa &l, const Kpa &r,
          const std::vector<ColumnId> &l_cols,
          const std::vector<ColumnId> &r_cols)
{
    const uint32_t out_cols =
        1 + static_cast<uint32_t>(l_cols.size() + r_cols.size());
    std::vector<std::pair<const KpEntry *, const KpEntry *>> matches;
    const KpEntry *le = l.entries();
    const KpEntry *re = r.entries();
    uint32_t i = 0, j = 0;
    while (i < l.size() && j < r.size()) {
        if (le[i].key < re[j].key) {
            ++i;
        } else if (re[j].key < le[i].key) {
            ++j;
        } else {
            const uint64_t key = le[i].key;
            uint32_t i_end = i;
            while (i_end < l.size() && le[i_end].key == key)
                ++i_end;
            uint32_t j_end = j;
            while (j_end < r.size() && re[j_end].key == key)
                ++j_end;
            for (uint32_t x = i; x < i_end; ++x)
                for (uint32_t y = j; y < j_end; ++y)
                    matches.emplace_back(&le[x], &re[y]);
            i = i_end;
            j = j_end;
        }
    }
    const auto m = static_cast<uint32_t>(matches.size());
    Bundle *out =
        Bundle::create(ctx.hm, out_cols, std::max<uint32_t>(m, 1));
    for (const auto &[a, b] : matches) {
        uint64_t *row = out->appendRaw();
        uint32_t c = 0;
        row[c++] = a->key;
        for (ColumnId lc : l_cols)
            row[c++] = a->row[lc];
        for (ColumnId rc : r_cols)
            row[c++] = b->row[rc];
    }
    return BundleHandle::adopt(out);
}

KpaPtr
naiveExtract(Ctx ctx, Bundle &src, ColumnId key_col, Placement place)
{
    KpaPtr out = Kpa::create(ctx.hm, src.size(), ctx.place(place));
    for (uint32_t r = 0; r < src.size(); ++r) {
        uint64_t *row = src.row(r);
        out->push(row[key_col], row);
    }
    out->setResidentColumn(key_col);
    out->setSorted(src.size() <= 1);
    out->addSource(&src);
    return out;
}

BundleHandle
naiveMaterialize(Ctx ctx, const Kpa &k)
{
    const uint32_t cols = k.recordCols();
    Bundle *out = Bundle::create(ctx.hm, cols, k.size());
    const KpEntry *e = k.entries();
    for (uint32_t i = 0; i < k.size(); ++i)
        out->append(e[i].row);
    return BundleHandle::adopt(out);
}

} // namespace sbhbm::bench
