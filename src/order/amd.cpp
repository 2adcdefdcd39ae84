// Approximate minimum degree ordering (AMD): Amestoy, Davis & Duff, "An
// approximate minimum degree ordering algorithm", SIAM J. Matrix Anal. Appl.
// 17(4), 1996.
//
// The elimination runs on a quotient graph held in one flat index array
// `iw`. Every live object, a principal supervariable or an unabsorbed
// element, owns one contiguous list there. A variable's list holds its
// adjacent elements first (elen of them), then its adjacent supervariables;
// an element's list holds the supervariables of its boundary L_e. Degrees
// count variables, so a supervariable i weighs nv(i). Each pivot step
//   1. takes a supervariable p of least approximate degree off its bucket;
//   2. forms the new element L_p: p's supervariables plus the boundaries of
//      p's elements, which p absorbs;
//   3. computes |L_e \ L_p| for every element e adjacent to L_p in one pass,
//      kept as w(e) - wflg;
//   4. for each i in L_p: drops absorbed elements and those with
//      L_e ⊆ L_p (aggressive absorption), drops variables that p now covers,
//      eliminates i together with p when p is its only neighbour (mass
//      elimination), and bounds its external degree by
//        d_i = min(n - k, d_i + |L_p \ i|,
//                  |A_i \ i| + |L_p \ i| + sum_e |L_e \ L_p|);
//   5. merges indistinguishable variables of L_p into supervariables: equal
//      list hashes pick the candidates, an exact comparison confirms them.
// The buckets are LIFO lists filled in a fixed order, so equal degrees are
// broken the same way on every run.
//
// Dense-row deferral is omitted. AMD moves rows with more than 10 sqrt(n)
// entries to the end of the order; no registry or benchmark matrix has one
// (c-71's supply rails have about 267 entries against a threshold of 632),
// so that branch would never run.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th {

Permutation detail::amd_elimination(const AdjacencyGraph& g) {
  const index_t n = g.n;
  const auto un = static_cast<std::size_t>(n);
  if (n == 0) return {};

  // The lists, with elbow room for new elements; compacted, then grown,
  // when full.
  std::vector<index_t> iw(g.adj.size() + g.adj.size() / 5 + un);
  std::copy(g.adj.begin(), g.adj.end(), iw.begin());
  auto pfree = static_cast<offset_t>(g.adj.size());
  // pe[j] >= 0 iff j is live with a non-empty list at iw[pe[j], +len[j]).
  std::vector<offset_t> pe(g.ptr.begin(), g.ptr.end() - 1);
  std::vector<index_t> len(un);
  std::vector<index_t> elen(un, 0);
  std::vector<index_t> nv(un, 1);       // negated while in L_p; 0 once merged
  std::vector<index_t> degree(un);      // variable: bucket; element: |L_e|
  std::vector<index_t> head(un, -1);    // degree buckets
  std::vector<index_t> next(un, -1);    // bucket links, then hash chains
  std::vector<index_t> last(un, -1);    // bucket links, then hash keys
  std::vector<index_t> hhead(un, -1);   // hash buckets
  std::vector<index_t> rep(un, -1);     // supervariable or pivot absorbing i
  std::vector<index_t> first(un, -1);   // a pivot's first order position
  // 0 marks an absorbed element. Each step raises wflg by at most n + 2,
  // so n (n + 2) < 2^63 bounds it and no reset is needed.
  std::vector<std::int64_t> w(un, 1);
  std::int64_t wflg = 2;

  auto bucket_remove = [&](index_t i) {
    const index_t ilast = last[i];
    const index_t inext = next[i];
    if (inext != -1) last[inext] = ilast;
    if (ilast != -1) {
      next[ilast] = inext;
    } else {
      head[degree[i]] = inext;
    }
  };
  auto bucket_insert = [&](index_t i, index_t d) {
    const index_t inext = head[d];
    if (inext != -1) last[inext] = i;
    next[i] = inext;
    last[i] = -1;
    head[d] = i;
    degree[i] = d;
  };
  // Slide every live list to the front of iw. Each list's first entry is
  // swapped for ~j, so one scan finds the list starts (entries are >= 0).
  auto compact = [&] {
    for (index_t j = 0; j < n; ++j) {
      if (pe[j] < 0) continue;
      const index_t lead = iw[pe[j]];
      iw[pe[j]] = ~j;
      pe[j] = lead;
    }
    offset_t dst = 0;
    for (offset_t src = 0; src < pfree;) {
      if (iw[src] >= 0) {
        ++src;
        continue;
      }
      const index_t j = ~iw[src++];
      iw[dst] = static_cast<index_t>(pe[j]);
      pe[j] = dst++;
      for (index_t k = 1; k < len[j]; ++k) iw[dst++] = iw[src++];
    }
    pfree = dst;
  };

  for (index_t i = 0; i < n; ++i) {
    len[i] = g.degree(i);
    if (len[i] == 0) pe[i] = -1;
    bucket_insert(i, len[i]);
  }

  std::vector<index_t> lp;  // the new element L_p
  lp.reserve(un);
  index_t nel = 0;     // variables eliminated so far
  index_t mindeg = 0;
  index_t lemax = 0;   // largest |L_e| so far
  while (nel < n) {
    // 1. The pivot: a supervariable of least approximate degree.
    while (head[mindeg] == -1) ++mindeg;
    const index_t me = head[mindeg];
    bucket_remove(me);
    index_t nvpiv = nv[me];
    first[me] = nel;
    nel += nvpiv;

    // 2. L_p; nv < 0 marks membership.
    nv[me] = -nvpiv;
    index_t degme = 0;
    lp.clear();
    auto take = [&](offset_t from, offset_t to) {
      for (offset_t q = from; q < to; ++q) {
        const index_t i = iw[q];
        const index_t nvi = nv[i];
        if (nvi <= 0) continue;  // merged, or already in L_p
        degme += nvi;
        nv[i] = -nvi;
        lp.push_back(i);
        bucket_remove(i);
      }
    };
    const offset_t pme = pe[me];
    for (index_t k = 0; k < elen[me]; ++k) {
      const index_t e = iw[pme + k];
      take(pe[e], pe[e] + len[e]);
      pe[e] = -1;  // absorbed into p
      w[e] = 0;
    }
    if (pme >= 0) take(pme + elen[me], pme + len[me]);

    // 3. w(e) - wflg = |L_e \ L_p| for each element adjacent to L_p.
    for (const index_t i : lp) {
      const index_t nvi = -nv[i];
      for (offset_t q = pe[i]; q < pe[i] + elen[i]; ++q) {
        std::int64_t& we = w[iw[q]];
        if (we >= wflg) {
          we -= nvi;
        } else if (we != 0) {
          we = degree[iw[q]] + wflg - nvi;
        }
      }
    }

    // 4. Prune each list of L_p, bound its degree, hash it.
    for (const index_t i : lp) {
      const offset_t p1 = pe[i];
      const offset_t p2 = p1 + elen[i];
      offset_t pn = p1;
      std::uint64_t hash = 0;
      std::int64_t deg = 0;
      for (offset_t q = p1; q < p2; ++q) {
        const index_t e = iw[q];
        if (w[e] == 0) continue;
        const std::int64_t dext = w[e] - wflg;
        if (dext > 0) {
          deg += dext;
          iw[pn++] = e;
          hash += static_cast<std::uint64_t>(e);
        } else {  // L_e ⊆ L_p: aggressive absorption
          pe[e] = -1;
          w[e] = 0;
        }
      }
      const auto eln = static_cast<index_t>(pn - p1 + 1);  // with p
      const offset_t p3 = pn;
      for (offset_t q = p2; q < p1 + len[i]; ++q) {
        const index_t j = iw[q];
        if (nv[j] <= 0) continue;  // merged, or covered by p
        deg += nv[j];
        iw[pn++] = j;
        hash += static_cast<std::uint64_t>(j);
      }
      if (eln == 1 && p3 == pn) {  // only p is left: mass elimination
        const index_t nvi = -nv[i];
        rep[i] = me;
        pe[i] = -1;
        nv[i] = 0;
        degme -= nvi;
        nvpiv += nvi;
        nel += nvi;
        continue;
      }
      degree[i] = static_cast<index_t>(std::min<std::int64_t>(degree[i], deg));
      // p goes first; the displaced element and variable move to the ends
      // of their parts. p covered at least one old entry, so this fits.
      iw[pn] = iw[p3];
      iw[p3] = iw[p1];
      iw[p1] = me;
      len[i] = static_cast<index_t>(pn - p1 + 1);
      elen[i] = eln;
      const auto h = static_cast<index_t>(hash % un);
      last[i] = h;
      next[i] = hhead[h];
      hhead[h] = i;
    }
    degree[me] = degme;
    lemax = std::max(lemax, degme);
    wflg += lemax;  // above every w(e) of step 3

    // 5. Supervariables: compare each list of a hash bucket with the later
    // ones; p heads every list, so comparisons skip it.
    for (const index_t i : lp) {
      if (nv[i] >= 0) continue;  // merged or mass-eliminated
      const index_t h = last[i];
      index_t s = hhead[h];
      hhead[h] = -1;
      for (; s != -1 && next[s] != -1; s = next[s]) {
        for (offset_t q = pe[s] + 1; q < pe[s] + len[s]; ++q) w[iw[q]] = wflg;
        index_t jlast = s;
        for (index_t j = next[s]; j != -1;) {
          bool same = len[j] == len[s] && elen[j] == elen[s];
          for (offset_t q = pe[j] + 1; same && q < pe[j] + len[j]; ++q) {
            same = w[iw[q]] == wflg;
          }
          if (same) {
            rep[j] = s;
            pe[j] = -1;
            nv[s] += nv[j];
            nv[j] = 0;
            j = next[j];
            next[jlast] = j;
          } else {
            jlast = j;
            j = next[j];
          }
        }
        ++wflg;
      }
    }

    // 6. Return the principal variables of L_p to the buckets with
    // d_i + |L_p \ i| capped by n - k, and keep them as p's element list.
    const index_t nleft = n - nel;
    std::size_t kept = 0;
    for (const index_t i : lp) {
      const index_t nvi = -nv[i];
      if (nvi <= 0) continue;
      nv[i] = nvi;
      const index_t d = std::min(degree[i] + degme - nvi, nleft - nvi);
      bucket_insert(i, d);
      mindeg = std::min(mindeg, d);
      lp[kept++] = i;
    }
    lp.resize(kept);
    nv[me] = nvpiv;
    const auto lsize = static_cast<index_t>(lp.size());
    if (lsize == 0) {
      pe[me] = -1;
      w[me] = 0;
    } else {
      if (lsize > len[me]) {  // p's own list is too short to hold L_p
        pe[me] = -1;
        if (pfree + lsize > static_cast<offset_t>(iw.size())) {
          compact();
          const auto room = static_cast<offset_t>(iw.size()) - pfree;
          if (room < lsize + static_cast<offset_t>(iw.size() / 4)) {
            iw.resize(iw.size() + iw.size() / 2 + lp.size());
          }
        }
        pe[me] = pfree;
        pfree += lsize;
      }
      std::copy(lp.begin(), lp.end(), iw.begin() + pe[me]);
    }
    len[me] = lsize;
  }

  // Each pivot's block of the order holds, in index order, the variables
  // whose rep chain ends at it.
  Permutation order(un);
  for (index_t i = 0; i < n; ++i) {
    index_t r = i;
    while (rep[r] != -1) r = rep[r];
    for (index_t j = i; j != r;) {  // path compression
      const index_t up = rep[j];
      rep[j] = r;
      j = up;
    }
    order[static_cast<std::size_t>(first[r]++)] = i;
  }
  TH_ASSERT(is_valid_permutation(order));
  return order;
}

Permutation min_degree_order(const Csr& a) {
  const AdjacencyGraph g = build_adjacency(a);
  return etree_postorder(g, detail::amd_elimination(g));
}

}  // namespace th
