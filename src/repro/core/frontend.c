/* Native frontend for a QA call's cache miss, one call per step: the
 * trail conditioning (ClauseTable.conditioned), the Eq. 5 encode
 * (encode_formula), the Section IV-C coefficient adjustment
 * (adjust_coefficients), the Section IV-B embedder
 * (HyQSatEmbedder.embed), the sum of the embedded clauses' weighted
 * terms (FormulaEncoding.terms_over) and the chain compile
 * (build_embedded_problem).
 *
 * Each function must return exactly what its Python twin returns (the
 * no-compiler path and the oracle); each is described above its
 * definition, the embed and the term sum here:
 *
 * embed_run.  HyQSatEmbedder._embed_loops on one encoded clause queue.
 * Step 1 gives each new variable the next vertical line, in queue
 * order, until a clause would need more lines than the lattice has,
 * and records the clause's connection requirements in the CRL (owners
 * in first-appearance order, each with its distinct targets in
 * insertion order).  Step 2 visits the horizontal lines bottom row
 * first and places every pending requirement whose column span is
 * still free there as one segment; a requirement that never fits is
 * retried, if its owner has a vertical line, as one segment per
 * target.  Each placed segment realises one coupler (horizontal qubit,
 * vertical qubit) per target at the crossing.  A candidate clause
 * embeds when its auxiliary chain was placed and every edge it needs
 * was realised; the auxiliaries of the other clauses are dropped.
 * Chains are the trimmed vertical runs plus owned segments, then the
 * kept auxiliaries' segments, each sorted.
 *
 * Free cells of a horizontal line are one bit per column, in words of
 * 64 columns.  Chains are pairwise disjoint (each vertical line has
 * one variable, each claimed cell one segment), so a chain's qubits
 * are its vertical run and its segments' cells, written in place and
 * insertion-sorted.  The tables are sized by the candidate clauses
 * (those that got their vertical lines), and the outputs are written
 * back to back, so a call touches little more than it returns.
 *
 * sum_terms.  FormulaEncoding.objective_over's dict adds, replayed on
 * arrays: each chosen term adds alpha * coeff to its key starting from
 * 0.0, in term order; a key whose sum is exactly 0.0 leaves its dict
 * and, if a later term re-adds it, goes back in at the end.  The keys
 * come out in that dict order, each with its sequential sum.
 *
 * Build without FP contraction or -ffast-math (see
 * repro/cdcl/native.py): every product and sum must round as CPython's
 * or NumPy's float arithmetic does (the compile's float32 row sums as
 * NumPy's pairwise add reduction forms them).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* An open-addressing map from non-negative keys to indices. */
typedef struct {
    i64 *keys;
    i64 *vals;
    i64 mask;
} Map;

static int map_init(Map *m, i64 entries)
{
    i64 size = 16;
    while (size < 2 * entries)
        size <<= 1;
    m->keys = malloc((size_t)size * sizeof(i64));
    m->vals = malloc((size_t)size * sizeof(i64));
    m->mask = size - 1;
    if (!m->keys || !m->vals)
        return -1;
    memset(m->keys, 0xff, (size_t)size * sizeof(i64)); /* -1: empty */
    return 0;
}

static void map_free(Map *m)
{
    free(m->keys);
    free(m->vals);
}

/* The slot holding ``key``, or the empty slot where it belongs. */
static i64 map_slot(const Map *m, i64 key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ull;
    i64 i = (i64)(h >> 20) & m->mask;
    while (m->keys[i] != -1 && m->keys[i] != key)
        i = (i + 1) & m->mask;
    return i;
}

/* ------------------------------------------------------------------ */
/* embed_run                                                           */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 rows, cols, shore, words, span;
    int32_t *line_of;  /* variable -> vertical line + 1 (0: none) */
    int32_t *owner_of; /* variable -> CRL owner + 1 (0: none) */
    i64 *rmin, *rmax;  /* coupled rows of each vertical line */
    /* CRL: owners, each with a linked list of distinct targets */
    i64 n_owners, n_req;
    i64 *own_var, *own_head, *own_tail, *own_lo, *own_hi, *own_mask;
    i64 *own_seg_head, *own_seg_tail, *own_nseg;
    uint8_t *own_ok, *own_dropped, *own_seen;
    i64 *req_target, *req_next;
    /* segments, linked per owner */
    i64 n_seg;
    i64 *seg_owner, *seg_h, *seg_c1, *seg_c2, *seg_next;
    /* realised edges and each realisation's coupler */
    Map edge_map;
    i64 n_edges, n_real;
    i64 *edge_u, *edge_v, *real_edge, *real_hq, *real_vq;
    uint64_t *free_cells;
} Embed;

static void crl_add(Embed *e, i64 owner, i64 target)
{
    int32_t o = e->owner_of[owner];
    if (!o) {
        o = (int32_t)++e->n_owners;
        e->owner_of[owner] = o;
        e->own_var[o - 1] = owner;
        e->own_head[o - 1] = e->own_tail[o - 1] = -1;
        e->own_seg_head[o - 1] = e->own_seg_tail[o - 1] = -1;
    }
    o -= 1;
    for (i64 r = e->own_head[o]; r >= 0; r = e->req_next[r])
        if (e->req_target[r] == target)
            return;
    i64 r = e->n_req++;
    e->req_target[r] = target;
    e->req_next[r] = -1;
    if (e->own_tail[o] >= 0)
        e->req_next[e->own_tail[o]] = r;
    else
        e->own_head[o] = r;
    e->own_tail[o] = r;
}

/* The requirements (owner, target) of one clause: the first variable
 * owns the variable-variable edge, the auxiliary its three
 * connections.  Returns their count (0 below two variables). */
static int requirements(const i64 *row, i64 width, i64 aux, i64 out[4][2])
{
    i64 v[3];
    int count = 0;
    for (i64 j = 0; j < width; j++) {
        if (!row[j])
            continue;
        if (count == 3)
            return 0;
        v[count++] = llabs(row[j]);
    }
    if (count == 2) {
        out[0][0] = v[0], out[0][1] = v[1];
        return 1;
    }
    if (count == 3) {
        out[0][0] = v[0], out[0][1] = v[1];
        for (int t = 0; t < 3; t++)
            out[t + 1][0] = aux, out[t + 1][1] = v[t];
        return 4;
    }
    return 0;
}

static i64 edge_key(const Embed *e, i64 a, i64 b)
{
    return a < b ? a * e->span + b : b * e->span + a;
}

/* The column span [lo, hi] a segment of owner ``o`` must cover to reach
 * ``target``, or all its targets when ``target`` is -1; 0 when a target
 * (or a vertical owner) has no line. */
static int span_of(const Embed *e, i64 o, i64 target, i64 *lo, i64 *hi)
{
    i64 owner = e->own_var[o], a = e->cols, b = -1;
    if (e->line_of[owner]) {
        a = b = (e->line_of[owner] - 1) / e->shore;
    } else if (owner <= 0) {
        return 0;
    }
    for (i64 r = e->own_head[o]; r >= 0; r = e->req_next[r]) {
        i64 t = target < 0 ? e->req_target[r] : target;
        int32_t line = e->line_of[t];
        if (!line)
            return 0;
        i64 col = (line - 1) / e->shore;
        if (col < a)
            a = col;
        if (col > b)
            b = col;
        if (target >= 0)
            break;
    }
    if (b < 0)
        return 0;
    *lo = a;
    *hi = b;
    return 1;
}

static uint64_t word_mask(i64 w, i64 lo, i64 hi)
{
    i64 base = w << 6;
    i64 a = lo > base ? lo - base : 0;
    i64 b = hi < base + 63 ? hi - base : 63;
    uint64_t upto = b == 63 ? ~0ull : (1ull << (b + 1)) - 1;
    return upto & ~((1ull << a) - 1);
}

/* Claim columns [lo, hi] of one line's free cells; 0 if any is taken. */
static int claim(uint64_t *cells, i64 lo, i64 hi)
{
    for (i64 w = lo >> 6; w <= hi >> 6; w++) {
        uint64_t m = word_mask(w, lo, hi);
        if ((cells[w] & m) != m)
            return 0;
    }
    for (i64 w = lo >> 6; w <= hi >> 6; w++)
        cells[w] &= ~word_mask(w, lo, hi);
    return 1;
}

/* ``claim`` with the span's bits precomputed when it lies in one word
 * (``mask``; 0 for a span across words). */
static int claim_span(uint64_t *cells, i64 lo, i64 hi, uint64_t mask)
{
    if (!mask)
        return claim(cells, lo, hi);
    uint64_t *word = cells + (lo >> 6);
    if ((*word & mask) != mask)
        return 0;
    *word &= ~mask;
    return 1;
}

static void touch_row(Embed *e, i64 var, i64 row)
{
    i64 line = e->line_of[var] - 1;
    if (row < e->rmin[line])
        e->rmin[line] = row;
    if (row > e->rmax[line])
        e->rmax[line] = row;
}

/* Record owner ``o``'s segment on line ``h`` over [lo, hi] and the
 * couplers it realises to ``target``, or to all its targets when
 * ``target`` is -1. */
static void place(Embed *e, i64 o, i64 target, i64 h, i64 lo, i64 hi)
{
    i64 s = e->n_seg++;
    e->seg_owner[s] = o;
    e->seg_h[s] = h;
    e->seg_c1[s] = lo;
    e->seg_c2[s] = hi;
    e->seg_next[s] = -1;
    if (e->own_seg_tail[o] >= 0)
        e->seg_next[e->own_seg_tail[o]] = s;
    else
        e->own_seg_head[o] = s;
    e->own_seg_tail[o] = s;
    e->own_nseg[o]++;

    i64 owner = e->own_var[o];
    i64 row = h / e->shore, unit = h % e->shore;
    for (i64 r = e->own_head[o]; r >= 0; r = e->req_next[r]) {
        i64 t = target < 0 ? e->req_target[r] : target;
        i64 line = e->line_of[t] - 1;
        i64 col = line / e->shore, cell = row * e->cols + col;
        i64 key = edge_key(e, owner, t);
        i64 slot = map_slot(&e->edge_map, key);
        if (e->edge_map.keys[slot] == -1) {
            e->edge_map.keys[slot] = key;
            e->edge_map.vals[slot] = e->n_edges;
            e->edge_u[e->n_edges] = owner < t ? owner : t;
            e->edge_v[e->n_edges] = owner < t ? t : owner;
            e->n_edges++;
        }
        i64 real = e->n_real++;
        e->real_edge[real] = e->edge_map.vals[slot];
        e->real_hq[real] = (cell * 2 + 1) * e->shore + unit;
        e->real_vq[real] = cell * 2 * e->shore + line % e->shore;
        touch_row(e, t, row);
        if (target >= 0)
            break;
    }
    if (e->line_of[owner])
        touch_row(e, owner, row);
}

/* Horizontal line visited ``t``-th: bottom row first, units in order. */
static i64 hline_at(const Embed *e, i64 t)
{
    return (e->rows - 1 - t / e->shore) * e->shore + t % e->shore;
}

/* Write the horizontal qubits of segment ``s`` from ``at`` on; returns
 * the slot after the last. */
static i64 *segment_qubits(const Embed *e, i64 s, i64 *at)
{
    i64 h = e->seg_h[s], row = h / e->shore, unit = h % e->shore;
    for (i64 c = e->seg_c1[s]; c <= e->seg_c2[s]; c++)
        *at++ = ((row * e->cols + c) * 2 + 1) * e->shore + unit;
    return at;
}

/* Insertion sort: a chain is a few short ascending runs. */
static void sort_run(i64 *run, i64 size)
{
    for (i64 i = 1; i < size; i++) {
        i64 q = run[i], j = i;
        while (j > 0 && run[j - 1] > q) {
            run[j] = run[j - 1];
            j--;
        }
        run[j] = q;
    }
}

/* Embed clauses ``lits`` (n rows of ``width`` signed literals,
 * zero-padded) with auxiliaries ``aux`` (0: none) on a rows x cols x
 * shore Chimera lattice.  ``out``
 * (``capacity`` slots) receives 8 counts (chains C, chain qubits Q,
 * edges E, couplers K, embedded, unembedded), then back to back: the
 * chains' variables, ascending (C); the start of each chain's run (C);
 * each chain's position in dict order (C); the runs, each ascending
 * (Q); the edges as (u, v) pairs (2E); the first coupler of each edge
 * (E); the couplers as (horizontal, vertical) pairs (2K); the
 * embedded, then the unembedded clause indices (n).  Returns 0, -1
 * when memory ran out, -2 when ``out`` is too short. */
i64 embed_run(i64 n, i64 width, const i64 *lits, const i64 *aux,
              i64 rows, i64 cols, i64 shore, i64 capacity, i64 *out)
{
    Embed e;
    memset(&e, 0, sizeof e);
    e.rows = rows, e.cols = cols, e.shore = shore;
    e.words = (cols + 63) / 64;
    e.span = 1;
    for (i64 k = 0; k < n; k++) {
        for (i64 j = 0; j < width; j++)
            if (llabs(lits[k * width + j]) >= e.span)
                e.span = llabs(lits[k * width + j]) + 1;
        if (aux[k] >= e.span)
            e.span = aux[k] + 1;
    }
    i64 lines = cols * shore, hlines = rows * shore, status = -1;
    i64 *arena = NULL;
    e.line_of = calloc(2 * (size_t)e.span, sizeof(int32_t));
    i64 *line_var = malloc((size_t)(3 * lines + 1) * sizeof(i64));
    if (!e.line_of || !line_var)
        goto done;
    e.owner_of = e.line_of + e.span;
    e.rmin = line_var + lines;
    e.rmax = line_var + 2 * lines;

    /* Step 1: vertical lines in queue order, until a clause would need
     * more lines than the lattice has. */
    i64 used = 0, candidates = 0;
    for (; candidates < n; candidates++) {
        const i64 *row = lits + candidates * width;
        i64 fresh = 0;
        for (i64 j = 0; j < width; j++)
            fresh += row[j] && !e.line_of[llabs(row[j])];
        if (used + fresh > lines)
            break;
        for (i64 j = 0; j < width; j++) {
            i64 var = llabs(row[j]);
            if (var && !e.line_of[var]) {
                line_var[used] = var;
                e.line_of[var] = (int32_t)++used;
            }
        }
    }
    for (i64 l = 0; l < used; l++)
        e.rmin[l] = rows, e.rmax[l] = -1;

    /* The rest is sized by the candidates: at most four requirements
     * each (so owners, segments, edges and couplers), one chain per
     * line plus one per auxiliary. */
    i64 pairs = 4 * candidates + 1, chains = used + candidates + 1;
    i64 flag_words = (3 * pairs + n) / 8 + 1;
    i64 **tables[] = {&e.own_var, &e.own_head, &e.own_tail, &e.own_lo,
                      &e.own_hi, &e.own_mask, &e.own_seg_head, &e.own_seg_tail,
                      &e.own_nseg, &e.req_target, &e.req_next,
                      &e.seg_owner, &e.seg_h, &e.seg_c1, &e.seg_c2,
                      &e.seg_next, &e.edge_u, &e.edge_v, &e.real_edge,
                      &e.real_hq, &e.real_vq};
    i64 n_tables = (i64)(sizeof tables / sizeof tables[0]);
    arena = malloc((size_t)((n_tables + 1) * pairs + 4 * chains + flag_words +
                            hlines * e.words) * sizeof(i64));
    if (!arena || map_init(&e.edge_map, pairs))
        goto done;
    i64 *at = arena;
    for (i64 t = 0; t < n_tables; t++, at += pairs)
        *tables[t] = at;
    i64 *pending = at;
    at += pairs;
    i64 *chain_var = at, *chain_size = at + chains;
    i64 *by_var = at + 2 * chains, *fill = at + 3 * chains;
    at += 4 * chains;
    uint8_t *flags = (uint8_t *)at;
    memset(flags, 0, (size_t)flag_words * sizeof(i64));
    e.own_ok = flags, e.own_dropped = flags + pairs, e.own_seen = flags + 2 * pairs;
    uint8_t *embeds = flags + 3 * pairs;
    at += flag_words;
    e.free_cells = (uint64_t *)at;
    memset(e.own_nseg, 0, (size_t)pairs * sizeof(i64));

    /* The CRL, in queue order. */
    for (i64 k = 0; k < candidates; k++) {
        i64 req[4][2];
        int count = requirements(lits + k * width, width, aux[k], req);
        for (int r = 0; r < count; r++)
            crl_add(&e, req[r][0], req[r][1]);
    }

    /* Step 2: horizontal segments, bottom line first. */
    for (i64 h = 0; h < hlines; h++)
        for (i64 w = 0; w < e.words; w++)
            e.free_cells[h * e.words + w] = word_mask(w, 0, cols - 1);
    i64 n_pending = e.n_owners;
    for (i64 o = 0; o < e.n_owners; o++) {
        pending[o] = o;
        /* A requirement's column span never changes within step 2. */
        i64 lo = 0, hi = 0;
        e.own_ok[o] = (uint8_t)span_of(&e, o, -1, &lo, &hi);
        e.own_lo[o] = lo, e.own_hi[o] = hi;
        e.own_mask[o] = (i64)((lo >> 6) == (hi >> 6) ? word_mask(lo >> 6, lo, hi) : 0);
    }
    for (i64 t = 0; t < hlines && n_pending; t++) {
        i64 h = hline_at(&e, t);
        uint64_t *cells = e.free_cells + h * e.words;
        i64 keep = 0;
        for (i64 p = 0; p < n_pending; p++) {
            i64 o = pending[p];
            if (e.own_ok[o] &&
                claim_span(cells, e.own_lo[o], e.own_hi[o], (uint64_t)e.own_mask[o]))
                place(&e, o, -1, h, e.own_lo[o], e.own_hi[o]);
            else
                pending[keep++] = o;
        }
        /* Free cells only shrink, so a requirement that failed on this
         * line cannot fit later: always move to the next line. */
        n_pending = keep;
    }

    /* Split pass: one segment per target, vertical owners only (an
     * auxiliary chain must stay one connected segment). */
    for (i64 p = 0; p < n_pending; p++) {
        i64 o = pending[p];
        if (!e.line_of[e.own_var[o]])
            continue;
        for (i64 r = e.own_head[o]; r >= 0; r = e.req_next[r]) {
            i64 target = e.req_target[r], lo, hi;
            if (!span_of(&e, o, target, &lo, &hi))
                continue;
            for (i64 t = 0; t < hlines; t++) {
                i64 h = hline_at(&e, t);
                if (claim(e.free_cells + h * e.words, lo, hi)) {
                    place(&e, o, target, h, lo, hi);
                    break;
                }
            }
        }
    }

    /* Clause classification: a candidate embeds when its auxiliary
     * chain was placed and every edge it needs was realised. */
    i64 n_embedded = 0;
    for (i64 k = 0; k < n; k++) {
        int fits = k < candidates;
        i64 a = aux[k];
        if (fits && a) {
            int32_t oa = e.owner_of[a];
            fits = oa && e.own_nseg[oa - 1] > 0;
        }
        if (fits) {
            i64 req[4][2];
            int count = requirements(lits + k * width, width, a, req);
            for (int r = 0; r < count && fits; r++) {
                i64 key = edge_key(&e, req[r][0], req[r][1]);
                fits = e.edge_map.keys[map_slot(&e.edge_map, key)] != -1;
            }
        }
        embeds[k] = (uint8_t)fits;
        n_embedded += fits;
        /* Auxiliary chains of unembedded clauses are dropped. */
        if (!fits && a && e.owner_of[a])
            e.own_dropped[e.owner_of[a] - 1] = 1;
    }

    /* Chains in dict order: the vertical lines' variables (trimmed
     * vertical spans plus owned segments), then the kept auxiliaries
     * by first segment. */
    i64 n_chains = 0;
    for (i64 l = 0; l < used; l++) {
        i64 size = e.rmax[l] < 0 ? 1 : e.rmax[l] - e.rmin[l] + 1;
        int32_t o = e.owner_of[line_var[l]];
        if (o)
            for (i64 s = e.own_seg_head[o - 1]; s >= 0; s = e.seg_next[s])
                size += e.seg_c2[s] - e.seg_c1[s] + 1;
        chain_var[n_chains] = line_var[l];
        chain_size[n_chains++] = size;
    }
    for (i64 s0 = 0; s0 < e.n_seg; s0++) {
        i64 o = e.seg_owner[s0];
        if (e.own_seen[o])
            continue;
        e.own_seen[o] = 1;
        if (e.line_of[e.own_var[o]] || e.own_dropped[o])
            continue;
        i64 size = 0;
        for (i64 s = e.own_seg_head[o]; s >= 0; s = e.seg_next[s])
            size += e.seg_c2[s] - e.seg_c1[s] + 1;
        chain_var[n_chains] = e.own_var[o];
        chain_size[n_chains++] = size;
    }
    /* by_var: the chains in ascending variable order. */
    for (i64 c = 0; c < n_chains; c++) {
        i64 j = c;
        while (j > 0 && chain_var[by_var[j - 1]] > chain_var[c]) {
            by_var[j] = by_var[j - 1];
            j--;
        }
        by_var[j] = c;
    }
    i64 total = 0;
    for (i64 i = 0; i < n_chains; i++) {
        fill[by_var[i]] = total;
        total += chain_size[by_var[i]];
    }
    if (8 + 3 * n_chains + total + 3 * e.n_edges + 2 * e.n_real + n > capacity) {
        status = -2;
        goto done;
    }

    i64 *out_vars = out + 8, *out_starts = out_vars + n_chains;
    i64 *out_order = out_starts + n_chains, *out_qubits = out_order + n_chains;
    for (i64 i = 0; i < n_chains; i++) {
        out_vars[i] = chain_var[by_var[i]];
        out_starts[i] = fill[by_var[i]];
        out_order[by_var[i]] = i;
    }
    for (i64 c = 0; c < n_chains; c++) {
        i64 *run = out_qubits + fill[c], *q = run, var = chain_var[c];
        int32_t o = e.owner_of[var];
        if (e.line_of[var]) {
            i64 l = e.line_of[var] - 1, col = l / shore, unit = l % shore;
            i64 r1 = e.rmax[l] < 0 ? rows - 1 : e.rmin[l];
            i64 r2 = e.rmax[l] < 0 ? rows - 1 : e.rmax[l];
            for (i64 r = r1; r <= r2; r++)
                *q++ = (r * cols + col) * 2 * shore + unit;
        }
        if (o)
            for (i64 s = e.own_seg_head[o - 1]; s >= 0; s = e.seg_next[s])
                q = segment_qubits(&e, s, q);
        sort_run(run, chain_size[c]);
    }

    /* Edges in first-realisation order, each edge's couplers in
     * realisation order. */
    i64 *out_edges = out_qubits + total;
    i64 *out_cstart = out_edges + 2 * e.n_edges;
    i64 *out_couplers = out_cstart + e.n_edges;
    for (i64 d = 0; d < e.n_edges; d++) {
        out_edges[2 * d] = e.edge_u[d];
        out_edges[2 * d + 1] = e.edge_v[d];
        pending[d] = 0;
    }
    for (i64 r = 0; r < e.n_real; r++)
        pending[e.real_edge[r]]++;
    i64 run = 0;
    for (i64 d = 0; d < e.n_edges; d++) {
        out_cstart[d] = run;
        run += pending[d];
        pending[d] = out_cstart[d];
    }
    for (i64 r = 0; r < e.n_real; r++) {
        i64 slot = pending[e.real_edge[r]]++;
        out_couplers[2 * slot] = e.real_hq[r];
        out_couplers[2 * slot + 1] = e.real_vq[r];
    }
    i64 *out_embedded = out_couplers + 2 * e.n_real;
    i64 *out_unembedded = out_embedded + n_embedded;
    for (i64 k = 0, yes = 0, no = 0; k < n; k++) {
        if (embeds[k])
            out_embedded[yes++] = k;
        else
            out_unembedded[no++] = k;
    }

    out[0] = n_chains;
    out[1] = total;
    out[2] = e.n_edges;
    out[3] = e.n_real;
    out[4] = n_embedded;
    out[5] = n - n_embedded;
    status = 0;

done:
    free(line_var);
    free(arena);
    free(e.line_of);
    map_free(&e.edge_map);
    return status;
}

/* ------------------------------------------------------------------ */
/* sum_terms                                                           */
/* ------------------------------------------------------------------ */

static int compare_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* One dict of the sum: each key's running value, whether it is in the
 * dict, and the stamp of its last insertion. */
typedef struct {
    i64 count, stamps;
    i64 *key, *stamp, *by_stamp;
    double *value;
    uint8_t *present;
} Dict;

static int dict_init(Dict *d, i64 cap)
{
    d->count = d->stamps = 0;
    d->key = malloc((size_t)cap * sizeof(i64));
    d->stamp = malloc((size_t)cap * sizeof(i64));
    d->by_stamp = malloc((size_t)cap * sizeof(i64));
    d->value = malloc((size_t)cap * sizeof(double));
    d->present = calloc((size_t)cap, 1);
    return d->key && d->stamp && d->by_stamp && d->value && d->present ? 0 : -1;
}

static void dict_free(Dict *d)
{
    free(d->key);
    free(d->stamp);
    free(d->by_stamp);
    free(d->value);
    free(d->present);
}

/* ``value[slot] += w`` as QuadraticObjective.add_linear/add_quadratic
 * does it: from 0.0 when absent, out of the dict at exactly 0.0. */
static void dict_add(Dict *d, i64 slot, double w)
{
    double now = (d->present[slot] ? d->value[slot] : 0.0) + w;
    if (now == 0.0) {
        d->present[slot] = 0;
        return;
    }
    if (!d->present[slot]) {
        d->present[slot] = 1;
        d->stamp[slot] = d->stamps;
        d->by_stamp[d->stamps++] = slot;
    }
    d->value[slot] = now;
}

/* Sum the terms of the sub-objectives whose clause is ``chosen``:
 * sub-objective j of clause ``sub_clause[j]`` has constant
 * ``offset[j]`` and coefficient ``alpha[j]``; term i adds
 * ``alpha[sub[i]] * coeff[i]`` to key ``keys[i]``, a pair u < v or
 * (v, v) for the linear term of v.  ``iout`` receives 3 counts
 * (linear L, quadratic M, variables V), then back to back: the
 * variables, ascending (V); the linear terms' variable indices (L); the
 * quadratic terms' row, then column indices (M each), in dict order.
 * ``fout`` receives the offset, then the linear (L) and the quadratic
 * (M) values.  Each term adds at most one key and two variables, so
 * ``iout`` needs 4 * n_terms + 3 slots and ``fout`` n_terms + 1.
 * Returns 0, or -1 when memory ran out. */
i64 sum_terms(i64 n_subs, const i64 *sub_clause, const double *offset,
              const double *alpha, const uint8_t *chosen, i64 n_terms,
              const i64 *keys, const i64 *sub, const double *coeff,
              i64 *iout, double *fout)
{
    double total = 0.0;
    for (i64 j = 0; j < n_subs; j++)
        if (chosen[sub_clause[j]])
            total += alpha[j] * offset[j];

    i64 span = 1, cap = 1;
    for (i64 i = 0; i < n_terms; i++) {
        if (!chosen[sub_clause[sub[i]]])
            continue;
        cap++;
        if (keys[2 * i + 1] >= span)
            span = keys[2 * i + 1] + 1;
    }
    i64 status = -1;
    Dict lin, quad;
    Map pairs;
    memset(&pairs, 0, sizeof pairs);
    int32_t *slot_of = calloc((size_t)span, sizeof(int32_t));
    i64 *order = malloc((size_t)(2 * cap) * sizeof(i64));
    int ok = dict_init(&lin, cap) == 0;
    ok = dict_init(&quad, cap) == 0 && ok;
    ok = ok && map_init(&pairs, cap) == 0;
    if (!ok || !slot_of || !order)
        goto done;

    for (i64 i = 0; i < n_terms; i++) {
        i64 j = sub[i];
        if (!chosen[sub_clause[j]])
            continue;
        double w = alpha[j] * coeff[i];
        i64 u = keys[2 * i], v = keys[2 * i + 1];
        if (u == v) {
            if (!slot_of[u]) {
                slot_of[u] = (int32_t)++lin.count;
                lin.key[lin.count - 1] = u;
            }
            dict_add(&lin, slot_of[u] - 1, w);
        } else {
            i64 at = map_slot(&pairs, u * span + v);
            if (pairs.keys[at] == -1) {
                pairs.keys[at] = u * span + v;
                pairs.vals[at] = quad.count;
                quad.key[quad.count++] = u * span + v;
            }
            dict_add(&quad, pairs.vals[at], w);
        }
    }

    /* The variables left in either dict, ascending. */
    memset(slot_of, 0, (size_t)span * sizeof(int32_t));
    i64 n_vars = 0;
    for (i64 s = 0; s < lin.count; s++)
        if (lin.present[s] && !slot_of[lin.key[s]]++)
            order[n_vars++] = lin.key[s];
    for (i64 s = 0; s < quad.count; s++) {
        if (!quad.present[s])
            continue;
        i64 u = quad.key[s] / span, v = quad.key[s] % span;
        if (!slot_of[u]++)
            order[n_vars++] = u;
        if (!slot_of[v]++)
            order[n_vars++] = v;
    }
    qsort(order, (size_t)n_vars, sizeof(i64), compare_i64);
    for (i64 k = 0; k < n_vars; k++) {
        iout[3 + k] = order[k];
        slot_of[order[k]] = (int32_t)k;
    }

    /* Each dict's keys by their last insertion. */
    i64 n_lin = 0, n_quad = 0;
    i64 *out_linear = iout + 3 + n_vars;
    for (i64 t = 0; t < lin.stamps; t++) {
        i64 s = lin.by_stamp[t];
        if (lin.present[s] && lin.stamp[s] == t) {
            out_linear[n_lin] = slot_of[lin.key[s]];
            fout[1 + n_lin++] = lin.value[s];
        }
    }
    for (i64 t = 0; t < quad.stamps; t++) {
        i64 s = quad.by_stamp[t];
        if (quad.present[s] && quad.stamp[s] == t)
            order[n_quad++] = s;
    }
    i64 *out_rows = out_linear + n_lin, *out_cols = out_rows + n_quad;
    for (i64 k = 0; k < n_quad; k++) {
        i64 s = order[k];
        out_rows[k] = slot_of[quad.key[s] / span];
        out_cols[k] = slot_of[quad.key[s] % span];
        fout[1 + n_lin + k] = quad.value[s];
    }
    iout[0] = n_lin;
    iout[1] = n_quad;
    iout[2] = n_vars;
    fout[0] = total;
    status = 0;

done:
    free(slot_of);
    free(order);
    dict_free(&lin);
    dict_free(&quad);
    map_free(&pairs);
    return status;
}

/* ------------------------------------------------------------------ */
/* encode_run                                                          */
/* ------------------------------------------------------------------ */

/* Encode ``n`` rows of ``width`` signed literals (zero-padded on the
 * right), numbering the auxiliaries of width-3 rows from
 * ``first_aux``.  Each row's shape picks its entries of the per-shape
 * tables of ``_shapes()``: ``num_subs`` (parts), ``parts`` (offset and
 * d_ij of each of two parts), ``count`` (terms, in the first of ``k``
 * slots), and per slot ``slots`` (two template slots), ``part`` and
 * ``coeff``.  ``iout``
 * receives the sub-objective and term counts S and T, then back to
 * back: the rows' first three literal columns (3n), the auxiliaries
 * (n), sub_clause and sub_part (S each), the keys (2T) and sub (T);
 * ``fout`` receives offset and d_value (S each), then coeff (T).  Needs
 * 2 + 4n + 2 * max parts * n + 3 * k * n and 2 * max parts * n + k * n
 * slots.  Returns 0, or 1 when a variable exceeds ``num_vars`` or a
 * row is empty, wider than three or tautological (the NumPy path then
 * raises the reason). */
i64 encode_run(i64 n, i64 width, const i64 *lits, i64 num_vars, i64 first_aux,
               const i64 *num_subs, const double *parts, const i64 *count,
               const i64 *slots, const i64 *part, const double *coeff, i64 k,
               i64 *iout, double *fout)
{
    i64 *out_lits = iout + 2, *out_aux = out_lits + 3 * n;
    i64 n_subs = 0, n_terms = 0;
    /* Validate and take each row's shape (held in out_aux for now). */
    for (i64 r = 0; r < n; r++) {
        const i64 *row = lits + r * width;
        i64 w = 0, signs = 0;
        for (i64 j = 0; j < width; j++) {
            if (llabs(row[j]) > num_vars)
                return 1;
            if (j && row[j] && llabs(row[j]) == llabs(row[j - 1]))
                return 1;
            w += row[j] != 0;
            if (j < 3 && row[j] > 0)
                signs += (i64)1 << j;
        }
        if (w == 0 || w > 3)
            return 1;
        i64 shape = ((i64)1 << w) - 2 + signs;
        out_aux[r] = shape;
        n_subs += num_subs[shape];
        n_terms += count[shape];
    }
    i64 *sub_clause = out_aux + n, *sub_part = sub_clause + n_subs;
    i64 *keys = sub_part + n_subs, *sub = keys + 2 * n_terms;
    double *offset = fout, *d_value = fout + n_subs, *out_coeff = d_value + n_subs;
    i64 s = 0, term = 0, aux = first_aux;
    for (i64 r = 0; r < n; r++) {
        const i64 *row = lits + r * width;
        i64 shape = out_aux[r], vars[4];
        for (i64 j = 0; j < 3; j++) {
            out_lits[3 * r + j] = j < width ? row[j] : 0;
            vars[j] = llabs(out_lits[3 * r + j]);
        }
        vars[3] = num_subs[shape] == 2 ? aux++ : 0;
        out_aux[r] = vars[3];
        for (i64 at = shape * k; at < shape * k + count[shape]; at++) {
            keys[2 * term] = vars[slots[2 * at]];
            keys[2 * term + 1] = vars[slots[2 * at + 1]];
            sub[term] = s + part[at];
            out_coeff[term++] = coeff[at];
        }
        for (i64 p = 0; p < num_subs[shape]; p++, s++) {
            sub_clause[s] = r;
            sub_part[s] = p + 1;
            offset[s] = parts[(shape * 2 + p) * 2];
            d_value[s] = parts[(shape * 2 + p) * 2 + 1];
        }
    }
    iout[0] = n_subs;
    iout[1] = n_terms;
    return 0;
}

/* ------------------------------------------------------------------ */
/* adjust_run                                                          */
/* ------------------------------------------------------------------ */

/* adjust_coefficients on an encoding's terms: term i adds
 * ``coeff[i]``, weighted by the α of sub-objective ``sub[i]``, to key
 * ``keys[i]`` (a variable (v, v), bound 2, or a pair, bound 1).  Each
 * key's sum runs in term order from 0.0, as np.bincount's does; d* is
 * the largest |sum| / bound at ``alpha_in``.  Every sub-objective with
 * d_ij > 0 gets α = max(1, d* / d_ij); when that raises a sum above
 * d* (1 + 1e-9), the boost is scaled back by the closed-form s*,
 * rounded down to a multiple of 2^-30 and clamped to [0, 1 - 2^-30].
 * Writes the α of each of ``n_subs`` sub-objectives to ``alpha`` and
 * d* to ``d_star``.  Returns 0, -1 when memory ran out, or 1 on a NaN
 * or non-finite scale (the NumPy path then raises). */
i64 adjust_run(i64 n_terms, const i64 *keys, const i64 *sub, const double *coeff,
               i64 n_subs, const double *alpha_in, const double *d_value,
               double *alpha, double *d_star)
{
    i64 span = 1;
    for (i64 i = 0; i < 2 * n_terms; i++)
        if (keys[i] >= span)
            span = keys[i] + 1;
    i64 status = -1;
    Map codes;
    i64 *term = malloc((size_t)(n_terms + 1) * sizeof(i64));
    double *sums = malloc(5 * (size_t)(n_terms + 1) * sizeof(double));
    if (!term || !sums || map_init(&codes, n_terms)) {
        if (term && sums)
            map_free(&codes);
        goto done;
    }
    double *bound = sums + (n_terms + 1), *raised = bound + (n_terms + 1);
    double *a = raised + (n_terms + 1), *b = a + (n_terms + 1);

    /* Number the keys (a variable, or a pair coded above every
     * variable) and sum each at the input coefficients. */
    i64 size = 0;
    for (i64 i = 0; i < n_terms; i++) {
        i64 u = keys[2 * i], v = keys[2 * i + 1];
        i64 code = u == v ? u : span * u + v;
        i64 slot = map_slot(&codes, code);
        if (codes.keys[slot] == -1) {
            codes.keys[slot] = code;
            codes.vals[slot] = size;
            sums[size] = 0.0;
            bound[size++] = code < span ? 2.0 : 1.0;
        }
        term[i] = codes.vals[slot];
        sums[term[i]] += alpha_in[sub[i]] * coeff[i];
    }
    double top = 0.0;
    for (i64 t = 0; t < size; t++) {
        double x = fabs(sums[t]) / bound[t];
        if (x != x) {
            status = 1;
            goto freed;
        }
        if (x > top)
            top = x;
    }
    for (i64 j = 0; j < n_subs; j++)
        alpha[j] = 1.0;
    if (top > 0.0) {
        /* Only ever increase weak coefficients. */
        for (i64 j = 0; j < n_subs; j++)
            if (d_value[j] > 0.0) {
                double q = top / d_value[j];
                alpha[j] = q > 1.0 ? q : 1.0;
            }
        double limit = top * (1.0 + 1e-9), over = 0.0;
        memset(raised, 0, (size_t)size * sizeof(double));
        for (i64 i = 0; i < n_terms; i++)
            raised[term[i]] += alpha[sub[i]] * coeff[i];
        for (i64 t = 0; t < size; t++) {
            double x = fabs(raised[t]) / bound[t];
            if (x != x) {
                status = 1;
                goto freed;
            }
            if (x > over)
                over = x;
        }
        if (over > limit) {
            memset(a, 0, (size_t)size * sizeof(double));
            memset(b, 0, (size_t)size * sizeof(double));
            for (i64 i = 0; i < n_terms; i++) {
                a[term[i]] += coeff[i];
                b[term[i]] += (alpha[sub[i]] - 1.0) * coeff[i];
            }
            double s_star = 0.0;
            int moving = 0;
            for (i64 t = 0; t < size; t++) {
                if (b[t] == 0.0)
                    continue;
                double room = bound[t] * limit - (b[t] > 0.0 ? 1.0 : -1.0) * a[t];
                double x = room / fabs(b[t]);
                if (x != x) {
                    status = 1;
                    goto freed;
                }
                if (!moving || x < s_star)
                    s_star = x;
                moving = 1;
            }
            /* floor(s* 2^30), clamped to [0, 2^30 - 1]; an infinite
             * s* is an error in Python's math.floor. */
            const double steps = 1073741824.0;
            double x = s_star * steps;
            if (x - x != 0.0) {
                status = 1;
                goto freed;
            }
            double taken = x <= 0.0 ? 0.0 : x >= steps - 1.0 ? steps - 1.0 : (double)(i64)x;
            double scale = taken / steps;
            for (i64 j = 0; j < n_subs; j++)
                alpha[j] = 1.0 + scale * (alpha[j] - 1.0);
        }
    }
    *d_star = top;
    status = 0;

freed:
    map_free(&codes);
done:
    free(term);
    free(sums);
    return status;
}

/* ------------------------------------------------------------------ */
/* compile_run                                                         */
/* ------------------------------------------------------------------ */

/* The sum of ``n`` float32 values as NumPy's float add reduction forms
 * it (its pairwise sum: eight running sums over blocks of eight, split
 * in halves above 128 values). */
static float pairwise_sum(const float *a, i64 n)
{
    if (n < 8) {
        float res = -0.0f;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        float r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        i64 i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        float res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* build_embedded_problem on arrays.  The objective's terms: ``n_vars``
 * ascending variables, ``n_lin`` linear terms (variable index, value)
 * and ``n_quad`` quadratic ones (row and column indices, value).  The
 * placement: ``n_chains`` chains (ascending variables, each the run of
 * ``qubits`` (n in all) from its start), ``n_edges`` edges (u, v) with
 * the start of each one's couplers (``n_couplers`` (horizontal,
 * vertical) qubit pairs).  The hardware: ``hw_qubits`` qubits and its
 * couplers, each listed once under its lower qubit: qubit q's upper
 * ends are ``hw_b[hw_rows[q]]`` up to ``hw_b[hw_rows[q + 1]]``.
 *
 * Each linear value is spread over its chain's qubits, each quadratic
 * value over its edge's couplers, and every hardware coupler inside a
 * chain gets ``chain_strength`` on both ends and -2 ``chain_strength``
 * on the coupler, added in that order (np.bincount's).  Couplers are
 * summed in that order from 0.0; one summing to exactly 0.0 is
 * dropped.  ``iout`` receives the coupling count C and the chain
 * coupler count M, then the chain couplers as ascending (i, j) pairs
 * (2M); ``csr`` the symmetric CSR's indptr (n + 1) and indices (2C),
 * in scipy's layout; ``fout`` the biases (n) and the CSR data (2C);
 * ``f32`` the biases and ``linear32 + rowsum(data32) / 2`` (n each),
 * then the data and ``-0.5`` times it (2C each), as float32, each row
 * summed as np.add.reduceat sums it.  ``capacity`` bounds the summed
 * problem and chain couplers (the outputs hold twice as many
 * couplings).  Returns 0; -1 when memory ran out; 1 when a variable
 * has no chain, an edge no coupler, a qubit lies outside the hardware
 * or the chains, or the couplers exceed ``capacity`` (the NumPy path
 * then raises or compiles). */
i64 compile_run(i64 n_vars, const i64 *variables, i64 n_lin,
                const i64 *linear_index, const double *linear, i64 n_quad,
                const i64 *quad_rows, const i64 *quad_cols,
                const double *quadratic, i64 n_chains, const i64 *chain_vars,
                const i64 *chain_starts, i64 n, const i64 *qubits,
                i64 n_edges, const i64 *edges, const i64 *coupler_starts,
                i64 n_couplers, const i64 *couplers, i64 hw_qubits,
                const i64 *hw_rows, const i64 *hw_b, double chain_strength,
                i64 capacity, i64 *iout, int32_t *csr, double *fout,
                float *f32)
{
    i64 status = -1, span = 1;
    Map edge_map;
    memset(&edge_map, 0, sizeof edge_map);
    for (i64 i = 0; i < 2 * n_edges; i++)
        if (edges[i] >= span)
            span = edges[i] + 1;
    for (i64 i = 0; i < n_vars; i++)
        if (variables[i] >= span)
            span = variables[i] + 1;
    i64 *index_of = malloc((size_t)(2 * hw_qubits + n_vars + n_quad + 1) * sizeof(i64));
    if (!index_of || map_init(&edge_map, n_edges))
        goto done;
    i64 *owner = index_of + hw_qubits, *chain_of = owner + hw_qubits;
    i64 *edge_of = chain_of + n_vars;
    for (i64 q = 0; q < hw_qubits; q++)
        index_of[q] = owner[q] = -1;
    status = 1;
    for (i64 c = 0; c < n_chains; c++) {
        i64 end = c + 1 < n_chains ? chain_starts[c + 1] : n;
        for (i64 i = chain_starts[c]; i < end; i++) {
            if (qubits[i] < 0 || qubits[i] >= hw_qubits)
                goto done;
            index_of[qubits[i]] = i;
            owner[qubits[i]] = c;
        }
    }
    /* Each variable's chain (binary search of the ascending chains). */
    for (i64 i = 0; i < n_vars; i++) {
        i64 lo = 0, hi = n_chains;
        while (lo < hi) {
            i64 mid = (lo + hi) / 2;
            if (chain_vars[mid] < variables[i])
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == n_chains || chain_vars[lo] != variables[i])
            goto done;
        chain_of[i] = lo;
    }
    /* Each quadratic term's edge, and the problem couplings' count. */
    for (i64 e = 0; e < n_edges; e++) {
        i64 code = edges[2 * e] * span + edges[2 * e + 1];
        i64 slot = map_slot(&edge_map, code);
        if (edge_map.keys[slot] == -1) {
            edge_map.keys[slot] = code;
            edge_map.vals[slot] = e;
        }
    }
    i64 problem = 0;
    for (i64 k = 0; k < n_quad; k++) {
        i64 code = variables[quad_rows[k]] * span + variables[quad_cols[k]];
        i64 slot = map_slot(&edge_map, code);
        if (edge_map.keys[slot] == -1)
            goto done;
        i64 e = edge_map.vals[slot];
        i64 end = e + 1 < n_edges ? coupler_starts[e + 1] : n_couplers;
        if (end <= coupler_starts[e])
            goto done;
        edge_of[k] = e;
        problem += end - coupler_starts[e];
    }

    i64 entries_cap = problem + 1;
    for (i64 i = 0; i < n; i++)
        entries_cap += hw_rows[qubits[i] + 1] - hw_rows[qubits[i]];
    i64 *lo_of = malloc((size_t)(3 * entries_cap + 2 * (n + 1)) * sizeof(i64));
    double *weight = malloc((size_t)entries_cap * sizeof(double));
    uint8_t *is_chain = malloc((size_t)entries_cap);
    if (!lo_of || !weight || !is_chain) {
        status = -1;
        goto entries_done;
    }
    i64 *hi_of = lo_of + entries_cap, *order = hi_of + entries_cap;
    i64 *row_at = order + entries_cap, *upper = row_at + (n + 1);

    /* Linear biases spread uniformly over chains. */
    double *bias = fout;
    for (i64 q = 0; q < n; q++)
        bias[q] = 0.0;
    for (i64 t = 0; t < n_lin; t++) {
        i64 c = chain_of[linear_index[t]];
        i64 end = c + 1 < n_chains ? chain_starts[c + 1] : n;
        double share = linear[t] / (double)(end - chain_starts[c]);
        for (i64 i = chain_starts[c]; i < end; i++)
            bias[i] += share;
    }
    /* Problem couplings spread over the realising couplers. */
    i64 n_entries = 0;
    for (i64 k = 0; k < n_quad; k++) {
        i64 e = edge_of[k];
        i64 end = e + 1 < n_edges ? coupler_starts[e + 1] : n_couplers;
        double w = quadratic[k] / (double)(end - coupler_starts[e]);
        for (i64 c = coupler_starts[e]; c < end; c++) {
            i64 a = couplers[2 * c], b = couplers[2 * c + 1];
            if (a < 0 || a >= hw_qubits || b < 0 || b >= hw_qubits ||
                index_of[a] < 0 || index_of[b] < 0) {
                status = 1;
                goto entries_done;
            }
            i64 ia = index_of[a], ib = index_of[b];
            lo_of[n_entries] = ia < ib ? ia : ib;
            hi_of[n_entries] = ia < ib ? ib : ia;
            weight[n_entries] = w;
            is_chain[n_entries++] = 0;
        }
    }
    /* Chain equality penalties on every intra-chain hardware coupler
     * (their order does not matter: each adds the same values). */
    for (i64 ia = 0; ia < n; ia++) {
        i64 q = qubits[ia];
        if (owner[q] < 0 || index_of[q] != ia)
            continue;
        for (i64 h = hw_rows[q]; h < hw_rows[q + 1]; h++) {
            if (owner[hw_b[h]] != owner[q])
                continue;
            i64 ib = index_of[hw_b[h]];
            bias[ia] += chain_strength;
            bias[ib] += chain_strength;
            lo_of[n_entries] = ia < ib ? ia : ib;
            hi_of[n_entries] = ia < ib ? ib : ia;
            weight[n_entries] = -2.0 * chain_strength;
            is_chain[n_entries++] = 1;
        }
    }
    if (n_entries > capacity) {
        status = 1;
        goto entries_done;
    }

    /* Sort the entries by (i, j), stably: by row, then insertion sort
     * within each row (a qubit has a handful of couplers). */
    memset(row_at, 0, (size_t)(n + 1) * sizeof(i64));
    for (i64 x = 0; x < n_entries; x++)
        row_at[lo_of[x] + 1]++;
    for (i64 r = 0; r < n; r++)
        row_at[r + 1] += row_at[r];
    memcpy(upper, row_at, (size_t)(n + 1) * sizeof(i64));
    for (i64 x = 0; x < n_entries; x++)
        order[upper[lo_of[x]]++] = x;
    for (i64 r = 0; r < n; r++) {
        i64 *run = order + row_at[r], size = row_at[r + 1] - row_at[r];
        for (i64 i = 1; i < size; i++) {
            i64 x = run[i], j = i;
            while (j > 0 && hi_of[run[j - 1]] > hi_of[x]) {
                run[j] = run[j - 1];
                j--;
            }
            run[j] = x;
        }
    }

    /* Sum each coupler's entries in input order; keep the nonzero sums
     * (in place of the sorted entries) and list the chain couplers. */
    i64 *chains_out = iout + 2, kept = 0, m = 0;
    for (i64 p = 0; p < n_entries;) {
        i64 x = order[p], i = lo_of[x], j = hi_of[x];
        double sum = 0.0;
        int chain = 0;
        for (; p < n_entries && lo_of[order[p]] == i && hi_of[order[p]] == j; p++) {
            sum += weight[order[p]];
            chain |= is_chain[order[p]];
        }
        if (chain) {
            chains_out[2 * m] = i;
            chains_out[2 * m++ + 1] = j;
        }
        if (sum != 0.0) {
            order[kept] = x;
            weight[x] = sum;
            kept++;
        }
    }

    /* The symmetric CSR: row r holds its couplers to lower indices,
     * then to higher ones, each ascending. */
    int32_t *indptr = csr, *indices = csr + n + 1;
    double *data = fout + n;
    memset(row_at, 0, (size_t)(n + 1) * sizeof(i64));
    memset(upper, 0, (size_t)(n + 1) * sizeof(i64));
    for (i64 p = 0; p < kept; p++) {
        row_at[hi_of[order[p]]]++; /* lower neighbours of row j */
        upper[lo_of[order[p]]]++;
    }
    indptr[0] = 0;
    for (i64 r = 0; r < n; r++) {
        i64 lower = row_at[r];
        indptr[r + 1] = (int32_t)(indptr[r] + lower + upper[r]);
        row_at[r] = indptr[r];         /* next lower slot */
        upper[r] = indptr[r] + lower;  /* next upper slot */
    }
    for (i64 p = 0; p < kept; p++) {
        i64 x = order[p], i = lo_of[x], j = hi_of[x];
        indices[upper[i]] = (int32_t)j;
        data[upper[i]++] = weight[x];
        indices[row_at[j]] = (int32_t)i;
        data[row_at[j]++] = weight[x];
    }

    /* The float32 forms the sweeps read. */
    i64 nnz = 2 * kept;
    float *linear32 = f32, *c = f32 + n, *data32 = f32 + 2 * n;
    float *scaled = data32 + nnz;
    for (i64 p = 0; p < nnz; p++) {
        data32[p] = (float)data[p];
        scaled[p] = data32[p] * -0.5f;
    }
    for (i64 r = 0; r < n; r++) {
        i64 start = indptr[r], size = indptr[r + 1] - start;
        float rowsum = 0.0f;
        if (size)
            rowsum = data32[start] + pairwise_sum(data32 + start + 1, size - 1);
        linear32[r] = (float)bias[r];
        c[r] = linear32[r] + 0.5f * rowsum;
    }
    iout[0] = kept;
    iout[1] = m;
    status = 0;

entries_done:
    free(lo_of);
    free(weight);
    free(is_chain);
done:
    free(index_of);
    map_free(&edge_map);
    return status;
}

/* ------------------------------------------------------------------ */
/* condition_run                                                       */
/* ------------------------------------------------------------------ */

/* ClauseTable.conditioned: rows ``rows`` (n) of the ``m`` x ``width``
 * table ``lits`` less the literals of assigned variables (``assigned``
 * nonzero, ``n_assigned`` entries), each row's survivors slid left in
 * order and zero-padded; a row left empty is dropped.  Writes the kept
 * rows to ``out`` (width each) and their indices to ``kept``.  Returns
 * the kept count, or -1 for a row or variable outside the tables (the
 * NumPy path then decides). */
i64 condition_run(i64 n, i64 m, i64 width, const i64 *lits, const i64 *rows,
                  i64 n_assigned, const uint8_t *assigned, i64 *out, i64 *kept)
{
    i64 count = 0;
    for (i64 r = 0; r < n; r++) {
        if (rows[r] < 0 || rows[r] >= m)
            return -1;
        const i64 *row = lits + rows[r] * width;
        i64 *dst = out + count * width, filled = 0;
        for (i64 j = 0; j < width; j++) {
            i64 var = llabs(row[j]);
            if (var >= n_assigned)
                return -1;
            if (row[j] && !assigned[var])
                dst[filled++] = row[j];
        }
        if (!filled)
            continue;
        while (filled < width)
            dst[filled++] = 0;
        kept[count++] = rows[r];
    }
    return count;
}
