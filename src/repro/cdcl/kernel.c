/* Native CDCL core.
 *
 * A literal C port of the hot loops of repro/cdcl/solver.py (the
 * reference engine): two-watched-literal propagation, first-UIP
 * conflict analysis with the same cheap literal minimisation, trail
 * backtracking, and the VSIDS/CHB decision heuristics backed by the
 * same indexed binary max-heap.  Every data structure lives in
 * NumPy-owned flat buffers handed over as raw pointers (see
 * repro/cdcl/native.py); this file never allocates — when the run
 * loop is about to outgrow a buffer it returns EV_GROW and the
 * Python wrapper reallocates and re-enters.
 *
 * Bit-identity contract: for the same formula, config, and seed the
 * fast engine must produce the same model, conflict count, learned
 * clauses, and per-clause visit counters as the reference.  That is
 * only possible if every ordering decision matches the Python code
 * exactly, so each function below mirrors its Python twin
 * statement-for-statement:
 *
 * - watch lists are order-preserving singly-linked lists scanned
 *   front to back, with moved watchers unlinked in place and new
 *   watchers appended at the tail (Python: list filter + append);
 * - clause literal slots are swapped exactly where the reference
 *   swaps them (slot order feeds the analysis iteration order);
 * - heap sift comparisons keep the reference's >= / > asymmetry so
 *   equal-score ties break identically;
 * - float updates (activity bumps, decays, rescales) run in the same
 *   sequence, which makes them bit-identical under IEEE-754 doubles
 *   (build without -ffast-math; see native.py).
 *
 * kernel_run is the one search loop.  The Python wrapper
 * (repro/cdcl/fast.py) owns everything cold: restart scheduling,
 * clause-DB reduction policy, every decision that is not the
 * heuristic's (assumptions, forced and random decisions), the
 * incremental push/pop bookkeeping, and the observers (iteration
 * hook, tracer, DRAT proof), which it serves at the stops it selects
 * in ``exits`` before each call.
 */

#include <stdint.h>

#define UNASSIGNED (-1)
#define NO_REASON (-1)
#define NIL (-1)

/* kernel_run exit events (mirrored in repro/cdcl/native.py).  The
 * last three, and EV_NEED_DECISION beyond the assumptions, are stops:
 * kernel_run returns one only when its bit (1 << event) is set in
 * ``exits``. */
#define EV_SAT 1
#define EV_ROOT_CONFLICT 2
#define EV_BUDGET 3
#define EV_RESTART_DUE 4
#define EV_REDUCE_DUE 5
#define EV_NEED_DECISION 6
#define EV_GROW 7
#define EV_ITERATION 8  /* top of an iteration, after the increment */
#define EV_PROPAGATED 9 /* after propagation */
#define EV_ANALYZED 10  /* after analysis, before the clause is learned */

#define HEUR_VSIDS 0
#define HEUR_CHB 1

/* Field order must match _CSolver in repro/cdcl/native.py exactly.
 * Only 8-byte members (pointers, int64_t, double) so there is no
 * padding to keep in sync. */
typedef struct {
    /* assignment state */
    int64_t n_vars;
    int8_t *values;    /* -1 unassigned, 0 false, 1 true (per var) */
    int32_t *levels;
    int32_t *reasons;  /* clause index or NO_REASON */
    uint8_t *phases;   /* saved phase per var */
    int32_t *trail;
    int64_t trail_len;
    int32_t *trail_lim;
    int64_t n_levels;  /* current decision level */
    int64_t prop_head;
    uint8_t *seen;     /* analysis scratch, always false outside analyze */
    uint8_t *mark;     /* minimisation scratch, ditto */
    int32_t *path;     /* analysis scratch: vars flagged seen */
    /* clause store */
    int32_t *pool;
    int64_t pool_len;
    int64_t pool_cap;
    int32_t *c_start;
    int32_t *c_size;
    int32_t *c_orig;   /* original-clause index or -1 for learned */
    uint8_t *c_learned;
    uint8_t *c_dead;
    double *c_act;     /* learned-clause activity */
    int64_t n_clauses;
    int64_t clause_cap;
    int32_t *learned_list; /* learned clause indices in learn order */
    int64_t n_learned;
    /* watch lists: one singly-linked node chain per literal */
    int32_t *w_head;
    int32_t *w_tail;
    int32_t *node_next;
    int32_t *node_clause;
    int64_t node_len;   /* high-water node count */
    int64_t node_cap;
    int64_t free_head;  /* recycled node chain */
    /* per-original-clause counters (ClauseCounters) */
    int64_t *prop_visits;
    int64_t *conf_visits;
    double *orig_act;
    /* stats (SolverStats) */
    int64_t propagations;
    int64_t conflicts;
    int64_t decisions;
    int64_t iterations;
    int64_t restarts;
    int64_t learned_total;
    int64_t deleted_total;
    int64_t max_level;
    /* clause activity bookkeeping */
    double clause_bump;
    double clause_decay;
    double orig_bump;   /* SolverConfig.activity_bump */
    /* config */
    int64_t phase_saving;
    /* heuristic */
    int64_t heur_kind;
    double *scores;
    int32_t *heap;
    int32_t *heap_pos;
    int64_t heap_len;
    double vs_bump;
    double vs_decay;
    double chb_step;
    double chb_step_min;
    double chb_step_decay;
    int64_t chb_conflicts;
    int64_t *chb_last;
    /* analysis output */
    int32_t *out_learned;
    int64_t out_learned_len;
    int64_t out_backjump;
    /* run-loop control */
    int64_t exits;            /* bit e set: return stop event e */
    int64_t resume_at;        /* last event returned: resume after it */
    int64_t pending_conflict; /* conflict stashed across a return */
    int64_t max_conflicts;   /* -1 = unlimited */
    int64_t max_iterations;  /* -1 = unlimited */
    int64_t restart_limit;   /* conflicts in window before restart; -1 = never */
    int64_t conflicts_in_window;
    double max_learned;      /* reduce threshold (float, as in Python) */
    int64_t n_assumptions;
} CSolver;

/* ------------------------------------------------------------------ */
/* Indexed max-heap (mirror of heuristics._IndexedMaxHeap)            */
/* ------------------------------------------------------------------ */

static void sift_up(CSolver *s, int64_t pos) {
    int32_t *heap = s->heap;
    double *scores = s->scores;
    int32_t *positions = s->heap_pos;
    int32_t var = heap[pos];
    double score = scores[var];
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (scores[heap[parent]] >= score)
            break;
        heap[pos] = heap[parent];
        positions[heap[pos]] = (int32_t)pos;
        pos = parent;
    }
    heap[pos] = var;
    positions[var] = (int32_t)pos;
}

static void sift_down(CSolver *s, int64_t pos) {
    int32_t *heap = s->heap;
    double *scores = s->scores;
    int32_t *positions = s->heap_pos;
    int64_t size = s->heap_len;
    int32_t var = heap[pos];
    double score = scores[var];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size)
            break;
        int64_t right = child + 1;
        if (right < size && scores[heap[right]] > scores[heap[child]])
            child = right;
        if (scores[heap[child]] <= score)
            break;
        heap[pos] = heap[child];
        positions[heap[pos]] = (int32_t)pos;
        pos = child;
    }
    heap[pos] = var;
    positions[var] = (int32_t)pos;
}

static void heap_push(CSolver *s, int32_t var) {
    if (s->heap_pos[var] >= 0)
        return;
    s->heap[s->heap_len] = var;
    s->heap_pos[var] = (int32_t)s->heap_len;
    s->heap_len += 1;
    sift_up(s, s->heap_len - 1);
}

static int32_t heap_pop(CSolver *s) {
    int32_t top = s->heap[0];
    s->heap_len -= 1;
    int32_t last = s->heap[s->heap_len];
    s->heap_pos[top] = -1;
    if (s->heap_len > 0) {
        s->heap[0] = last;
        s->heap_pos[last] = 0;
        sift_down(s, 0);
    }
    return top;
}

static void heap_update(CSolver *s, int32_t var) {
    int32_t pos = s->heap_pos[var];
    if (pos < 0)
        return;
    sift_up(s, pos);
    sift_down(s, s->heap_pos[var]);
}

static void heap_rescore_all(CSolver *s) {
    for (int64_t i = s->heap_len / 2 - 1; i >= 0; i--)
        sift_down(s, i);
}

/* ------------------------------------------------------------------ */
/* Heuristics (mirror of VsidsHeuristic / ChbHeuristic)               */
/* ------------------------------------------------------------------ */

#define VSIDS_RESCALE_LIMIT 1e100

static void vsids_bump_score(CSolver *s, int32_t var, double amount) {
    s->scores[var] += amount;
    if (s->scores[var] > VSIDS_RESCALE_LIMIT) {
        double inv = 1.0 / VSIDS_RESCALE_LIMIT;
        for (int64_t i = 0; i < s->n_vars; i++)
            s->scores[i] *= inv;
        s->vs_bump *= inv;
        heap_rescore_all(s);
    } else {
        heap_update(s, var);
    }
}

static void chb_reward(CSolver *s, int32_t var, double multiplier) {
    int64_t age = s->chb_conflicts - s->chb_last[var] + 1;
    double reward = multiplier / (double)age;
    s->scores[var] =
        (1.0 - s->chb_step) * s->scores[var] + s->chb_step * reward;
    heap_update(s, var);
}

static void heur_on_assign(CSolver *s, int32_t var) {
    if (s->heur_kind == HEUR_CHB)
        chb_reward(s, var, 0.9);
}

static void heur_on_unassign(CSolver *s, int32_t var) {
    heap_push(s, var);
}

static void heur_on_conflict_var(CSolver *s, int32_t var) {
    if (s->heur_kind == HEUR_VSIDS) {
        vsids_bump_score(s, var, s->vs_bump);
    } else {
        s->chb_last[var] = s->chb_conflicts;
        chb_reward(s, var, 1.0);
    }
}

static void heur_after_conflict(CSolver *s) {
    if (s->heur_kind == HEUR_VSIDS) {
        s->vs_bump /= s->vs_decay;
    } else {
        s->chb_conflicts += 1;
        if (s->chb_step > s->chb_step_min) {
            double next = s->chb_step - s->chb_step_decay;
            s->chb_step = next > s->chb_step_min ? next : s->chb_step_min;
        }
    }
}

void kernel_bump_variable(CSolver *s, int64_t var, double amount) {
    if (s->heur_kind == HEUR_VSIDS) {
        vsids_bump_score(s, (int32_t)var, amount * s->vs_bump);
    } else {
        s->scores[var] += amount;
        heap_update(s, (int32_t)var);
    }
}

/* ------------------------------------------------------------------ */
/* Assignment / trail                                                 */
/* ------------------------------------------------------------------ */

static int lit_value(const CSolver *s, int32_t lit) {
    int8_t val = s->values[lit >> 1];
    if (val == UNASSIGNED)
        return UNASSIGNED;
    return val ^ (lit & 1);
}

static void assign(CSolver *s, int32_t lit, int32_t reason) {
    int32_t var = lit >> 1;
    s->values[var] = (int8_t)(1 - (lit & 1));
    s->levels[var] = (int32_t)s->n_levels;
    s->reasons[var] = reason;
    s->trail[s->trail_len++] = lit;
    if (s->phase_saving)
        s->phases[var] = (uint8_t)(1 - (lit & 1));
    heur_on_assign(s, var);
}

void kernel_assign_root(CSolver *s, int64_t lit) {
    assign(s, (int32_t)lit, NO_REASON);
}

void kernel_new_level(CSolver *s) {
    s->trail_lim[s->n_levels] = (int32_t)s->trail_len;
    s->n_levels += 1;
}

void kernel_decide(CSolver *s, int64_t lit) {
    s->decisions += 1;
    kernel_new_level(s);
    if (s->n_levels > s->max_level)
        s->max_level = s->n_levels;
    assign(s, (int32_t)lit, NO_REASON);
}

void kernel_backtrack(CSolver *s, int64_t level) {
    if (s->n_levels <= level)
        return;
    int64_t boundary = s->trail_lim[level];
    for (int64_t i = s->trail_len - 1; i >= boundary; i--) {
        int32_t var = s->trail[i] >> 1;
        s->values[var] = UNASSIGNED;
        s->reasons[var] = NO_REASON;
        heur_on_unassign(s, var);
    }
    s->trail_len = boundary;
    s->n_levels = level;
    if (s->prop_head > s->trail_len)
        s->prop_head = s->trail_len;
}

/* Root-trail truncation for the incremental pop(): unassign every
 * root assignment at or after ``boundary`` (newest first, like a
 * backtrack). */
void kernel_truncate_root(CSolver *s, int64_t boundary) {
    for (int64_t i = s->trail_len - 1; i >= boundary; i--) {
        int32_t var = s->trail[i] >> 1;
        s->values[var] = UNASSIGNED;
        s->reasons[var] = NO_REASON;
        heur_on_unassign(s, var);
    }
    if (s->trail_len > boundary)
        s->trail_len = boundary;
    if (s->prop_head > s->trail_len)
        s->prop_head = s->trail_len;
}

/* ------------------------------------------------------------------ */
/* Watch lists                                                        */
/* ------------------------------------------------------------------ */

static int32_t node_alloc(CSolver *s) {
    if (s->free_head != NIL) {
        int32_t node = (int32_t)s->free_head;
        s->free_head = s->node_next[node];
        return node;
    }
    return (int32_t)s->node_len++;
}

static void watch_append(CSolver *s, int32_t lit, int32_t node) {
    s->node_next[node] = NIL;
    if (s->w_tail[lit] == NIL) {
        s->w_head[lit] = node;
    } else {
        s->node_next[s->w_tail[lit]] = node;
    }
    s->w_tail[lit] = node;
}

/* Attach a clause on its first two literal slots (MiniSAT
 * convention; mirror of _attach). */
void kernel_attach_clause(CSolver *s, int64_t ci) {
    int32_t *lits = s->pool + s->c_start[ci];
    int32_t node0 = node_alloc(s);
    s->node_clause[node0] = (int32_t)ci;
    watch_append(s, lits[0] ^ 1, node0);
    int32_t node1 = node_alloc(s);
    s->node_clause[node1] = (int32_t)ci;
    watch_append(s, lits[1] ^ 1, node1);
}

/* Register clause metadata written by Python into the flat arrays
 * and attach its watches when it has >= 2 literals. */
static void kernel_add_clause(CSolver *s, int64_t start, int64_t size,
                              int64_t orig_index, int64_t learned) {
    int64_t ci = s->n_clauses++;
    s->c_start[ci] = (int32_t)start;
    s->c_size[ci] = (int32_t)size;
    s->c_orig[ci] = (int32_t)orig_index;
    s->c_learned[ci] = (uint8_t)learned;
    s->c_dead[ci] = 0;
    s->c_act[ci] = 0.0;
    if (size >= 2)
        kernel_attach_clause(s, ci);
}

/* Remove every clause flagged in ``remove`` from the watch lists
 * (order-preserving filter, like the reference's list rebuild), drop
 * them from the learned list, and mark them dead. */
void kernel_detach_clauses(CSolver *s, const uint8_t *remove) {
    for (int64_t lit = 0; lit < 2 * s->n_vars; lit++) {
        int32_t node = s->w_head[lit];
        int32_t prev = NIL;
        while (node != NIL) {
            int32_t next = s->node_next[node];
            if (remove[s->node_clause[node]]) {
                if (prev == NIL)
                    s->w_head[lit] = next;
                else
                    s->node_next[prev] = next;
                if (s->w_tail[lit] == node)
                    s->w_tail[lit] = prev;
                s->node_next[node] = (int32_t)s->free_head;
                s->free_head = node;
            } else {
                prev = node;
            }
            node = next;
        }
    }
    int64_t kept = 0;
    for (int64_t i = 0; i < s->n_learned; i++) {
        int32_t ci = s->learned_list[i];
        if (!remove[ci])
            s->learned_list[kept++] = ci;
    }
    s->n_learned = kept;
    for (int64_t ci = 0; ci < s->n_clauses; ci++)
        if (remove[ci])
            s->c_dead[ci] = 1;
}

/* ------------------------------------------------------------------ */
/* Propagation (mirror of _propagate)                                 */
/* ------------------------------------------------------------------ */

static int64_t kernel_propagate(CSolver *s) {
    while (s->prop_head < s->trail_len) {
        int32_t ilit = s->trail[s->prop_head++];
        int32_t false_lit = ilit ^ 1;
        int32_t node = s->w_head[ilit];
        int32_t prev = NIL;
        while (node != NIL) {
            int32_t next = s->node_next[node];
            int32_t ci = s->node_clause[node];
            int32_t orig = s->c_orig[ci];
            if (orig >= 0)
                s->prop_visits[orig] += 1;
            int32_t *lits = s->pool + s->c_start[ci];
            /* Ensure the false literal is in slot 1. */
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            int32_t first = lits[0];
            int fv = lit_value(s, first);
            if (fv == 1) {
                prev = node;
                node = next;
                continue;
            }
            /* Look for a new literal to watch. */
            int moved = 0;
            int32_t size = s->c_size[ci];
            for (int32_t k = 2; k < size; k++) {
                if (lit_value(s, lits[k]) != 0) {
                    int32_t tmp = lits[1];
                    lits[1] = lits[k];
                    lits[k] = tmp;
                    /* Unlink from this list, append to the new one
                     * (the new watch literal is never ~ilit, so the
                     * current scan is unaffected). */
                    if (prev == NIL)
                        s->w_head[ilit] = next;
                    else
                        s->node_next[prev] = next;
                    if (s->w_tail[ilit] == node)
                        s->w_tail[ilit] = prev;
                    watch_append(s, lits[1] ^ 1, node);
                    moved = 1;
                    break;
                }
            }
            if (moved) {
                node = next;
                continue;
            }
            prev = node;
            if (fv == 0) {
                /* Conflict: the rest of the list stays untouched. */
                s->prop_head = s->trail_len;
                return ci;
            }
            /* Unit: propagate first. */
            s->propagations += 1;
            assign(s, first, ci);
            node = next;
        }
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* Conflict analysis (mirror of _analyze + _learn + decay)            */
/* ------------------------------------------------------------------ */

static void bump_clause(CSolver *s, int64_t ci) {
    if (s->c_learned[ci]) {
        s->c_act[ci] += s->clause_bump;
        if (s->c_act[ci] > 1e20) {
            for (int64_t i = 0; i < s->n_learned; i++)
                s->c_act[s->learned_list[i]] *= 1e-20;
            s->clause_bump *= 1e-20;
        }
    } else if (s->c_orig[ci] >= 0) {
        s->conf_visits[s->c_orig[ci]] += 1;
        s->orig_act[s->c_orig[ci]] += s->orig_bump;
    }
}

/* First-UIP analysis.  Fills out_learned / out_backjump, leaving the
 * learned clause uninstalled — kernel_learn completes the conflict
 * handling (at an EV_ANALYZED stop the Python wrapper logs the DRAT
 * proof in between). */
static void kernel_analyze(CSolver *s, int64_t conflict_ci) {
    int32_t *learned = s->out_learned;
    int64_t learned_len = 1; /* slot 0: asserting literal placeholder */
    uint8_t *seen = s->seen;
    int64_t counter = 0;
    int32_t ilit = -1;
    int64_t index = s->trail_len - 1;
    int64_t record = conflict_ci;
    int64_t path_len = 0;

    for (;;) {
        if (record != NO_REASON) {
            bump_clause(s, record);
            int32_t *lits = s->pool + s->c_start[record];
            int32_t size = s->c_size[record];
            for (int32_t j = 0; j < size; j++) {
                int32_t lit_k = lits[j];
                if (ilit >= 0 && lit_k == ilit)
                    continue;
                int32_t var_k = lit_k >> 1;
                if (seen[var_k] || s->levels[var_k] == 0)
                    continue;
                seen[var_k] = 1;
                s->path[path_len++] = var_k;
                heur_on_conflict_var(s, var_k);
                if (s->levels[var_k] >= s->n_levels)
                    counter += 1;
                else
                    learned[learned_len++] = lit_k;
            }
        }
        /* Walk the trail back to the next marked literal. */
        while (!seen[s->trail[index] >> 1])
            index -= 1;
        ilit = s->trail[index];
        int32_t var = ilit >> 1;
        seen[var] = 0;
        counter -= 1;
        index -= 1;
        if (counter <= 0)
            break;
        record = s->reasons[var];
    }

    learned[0] = ilit ^ 1;
    /* Cheap literal minimisation: drop literals whose reason's other
     * literals are all already present or at level 0. */
    uint8_t *mark = s->mark;
    for (int64_t i = 1; i < learned_len; i++)
        mark[learned[i] >> 1] = 1;
    int64_t kept = 1;
    for (int64_t i = 1; i < learned_len; i++) {
        int32_t lit_k = learned[i];
        int32_t reason = s->reasons[lit_k >> 1];
        if (reason == NO_REASON) {
            learned[kept++] = lit_k;
            continue;
        }
        int redundant = 1;
        int32_t *rlits = s->pool + s->c_start[reason];
        int32_t rsize = s->c_size[reason];
        for (int32_t j = 0; j < rsize; j++) {
            int32_t other_var = rlits[j] >> 1;
            if (!(mark[other_var] || s->levels[other_var] == 0 ||
                  other_var == (lit_k >> 1))) {
                redundant = 0;
                break;
            }
        }
        if (!redundant)
            learned[kept++] = lit_k;
    }
    learned_len = kept;

    /* Every marked/seen var was recorded in path, so one sweep
     * restores both scratch arrays to all-zero. */
    for (int64_t i = 0; i < path_len; i++) {
        mark[s->path[i]] = 0;
        seen[s->path[i]] = 0;
    }

    int64_t backjump;
    if (learned_len == 1) {
        backjump = 0;
    } else {
        /* Second-highest level among learned literals. */
        int64_t max_i = 1;
        for (int64_t k = 2; k < learned_len; k++) {
            if (s->levels[learned[k] >> 1] > s->levels[learned[max_i] >> 1])
                max_i = k;
        }
        int32_t tmp = learned[1];
        learned[1] = learned[max_i];
        learned[max_i] = tmp;
        backjump = s->levels[learned[1] >> 1];
    }
    s->out_learned_len = learned_len;
    s->out_backjump = backjump;
}

/* Install the analysis result: backtrack, store/attach the learned
 * clause (or assign the learned unit), then decay clause activity
 * and run the heuristic's after-conflict step.  Mirrors the conflict
 * branch of the reference solve loop. */
static void kernel_learn(CSolver *s) {
    kernel_backtrack(s, s->out_backjump);
    s->learned_total += 1;
    if (s->out_learned_len == 1) {
        assign(s, s->out_learned[0], NO_REASON);
    } else {
        int64_t ci = s->n_clauses;
        int64_t start = s->pool_len;
        for (int64_t i = 0; i < s->out_learned_len; i++)
            s->pool[s->pool_len++] = s->out_learned[i];
        kernel_add_clause(s, start, s->out_learned_len, -1, 1);
        s->c_act[ci] = s->clause_bump;
        s->learned_list[s->n_learned++] = (int32_t)ci;
        assign(s, s->out_learned[0], (int32_t)ci);
    }
    s->clause_bump /= s->clause_decay;
    heur_after_conflict(s);
}

/* ------------------------------------------------------------------ */
/* Decision picking (heuristic arm of _pick_branch)                   */
/* ------------------------------------------------------------------ */

int64_t kernel_pick(CSolver *s) {
    while (s->heap_len > 0) {
        int32_t var = heap_pop(s);
        if (s->values[var] == UNASSIGNED)
            return 2 * (int64_t)var + (s->phases[var] ? 0 : 1);
    }
    return -2; /* all assigned: SAT */
}

/* ------------------------------------------------------------------ */
/* The search loop (mirror of the reference solve loop)               */
/* ------------------------------------------------------------------ */

static int grow_needed(const CSolver *s) {
    return s->pool_len + s->n_vars + 1 > s->pool_cap ||
           s->n_clauses + 1 > s->clause_cap ||
           s->node_len + 2 > s->node_cap;
}

#define WANTS(s, event) ((s)->exits & ((int64_t)1 << (event)))

static int64_t stop(CSolver *s, int64_t event) {
    s->resume_at = event;
    return event;
}

/* Runs the search from where the last call stopped until it ends or
 * needs Python: a budget, a restart or reduction that is due, buffer
 * growth, a decision it may not take itself (an assumption, or any
 * decision while EV_NEED_DECISION is wanted), or a stop selected in
 * ``exits``.  Python answers EV_NEED_DECISION with the decision, so
 * the next call starts a new iteration. */
int64_t kernel_run(CSolver *s) {
    int64_t conflict = s->pending_conflict;
    switch (s->resume_at) {
    case EV_ITERATION: goto propagate;
    case EV_PROPAGATED: goto propagated;
    case EV_GROW: goto analyze;
    case EV_ANALYZED: goto learn;
    case EV_REDUCE_DUE: goto pick;
    default: break; /* the top of an iteration */
    }
    for (;;) {
        if ((s->max_conflicts >= 0 && s->conflicts >= s->max_conflicts) ||
            (s->max_iterations >= 0 && s->iterations >= s->max_iterations))
            return stop(s, EV_BUDGET);
        s->iterations += 1;
        if (WANTS(s, EV_ITERATION))
            return stop(s, EV_ITERATION);
    propagate:
        conflict = kernel_propagate(s);
        if (WANTS(s, EV_PROPAGATED)) {
            s->pending_conflict = conflict;
            return stop(s, EV_PROPAGATED);
        }
    propagated:
        if (conflict >= 0) {
            s->conflicts += 1;
            s->conflicts_in_window += 1;
            if (s->n_levels == 0)
                return stop(s, EV_ROOT_CONFLICT);
            if (grow_needed(s)) {
                s->pending_conflict = conflict;
                return stop(s, EV_GROW);
            }
        analyze:
            kernel_analyze(s, conflict);
            if (WANTS(s, EV_ANALYZED))
                return stop(s, EV_ANALYZED);
        learn:
            kernel_learn(s);
            continue;
        }
        if (s->restart_limit >= 0 &&
            s->conflicts_in_window >= s->restart_limit)
            return stop(s, EV_RESTART_DUE);
        if ((double)s->n_learned >= s->max_learned + (double)s->trail_len)
            return stop(s, EV_REDUCE_DUE);
    pick:
        if (s->n_levels < s->n_assumptions || WANTS(s, EV_NEED_DECISION))
            return stop(s, EV_NEED_DECISION);
        int64_t lit = kernel_pick(s);
        if (lit == -2)
            return stop(s, EV_SAT);
        kernel_decide(s, lit);
    }
}
