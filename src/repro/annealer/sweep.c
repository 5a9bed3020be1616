/* Native read-out for SimulatedAnnealingSampler and LogicalDescender:
 * the anneal sweeps, the greedy descent after them, and the logical
 * correction's first-improvement pass.
 *
 * Every function must leave each read bit-identical to the NumPy or
 * Python loop it replaces (the no-compiler path and the oracle).
 *
 * Uniforms.  The sweeps and the descent draw, from the sampler's own
 * NumPy generator, the values rng.random(dtype=np.float32) returns:
 * the top 24 bits of one uint32 draw each, times 2^-24.  NumPy's PCG64
 * hands out each 64-bit output as two uint32 draws, low half first,
 * so draw_uniforms takes one next_uint64 per two uniforms and keeps
 * the held-back half in ``carry`` (the generator's has_uint32 and
 * uinteger, which the sampler writes back afterwards).
 *
 * Sweeps.  Diluted parallel Metropolis on an (n, R) float32
 * magnetisation matrix m (replicas are columns).  The exponent of each
 * spin is computed with the NumPy loop's float32 operations in the
 * same order:
 *
 *   acc = sum over the CSR row of (-0.5 * a_ij) * m_j, then + c_i
 *         (the augmented matrix's last column, absent where c_i == 0);
 *   y   = (-beta) * max(acc * m_i, 0).
 *
 * With one replica, every row's first two terms are summed in one
 * vectorised pass and the longer rows finished one by one (products1).
 *
 * NumPy flips a spin iff 2u < np.exp(y).  np.exp is not libm's expf
 * (they disagree on about one float32 in nine), so this file decides a
 * flip only when 2u lies outside a relative band of 2^-16 around its
 * own exp estimate, which stays within 1e-6 of np.exp over [-80, 0]
 * (tests/annealer/test_sweep_kernel.py checks the band against
 * np.exp).  A sweep with any spin inside the band is returned
 * unapplied, its exponents left in y and its doubled uniforms in u2,
 * for NumPy to resolve with np.exp itself.  Below y = -80 the estimate
 * is clamped and only "no flip" is decided: 2u is either 0 or at least
 * 2^-23 there.
 *
 * Greedy descent.  On the (n, R) float32 0/1 state s: the field
 * linear_i + (A s)_i, each product summed from 0 in CSR order as
 * scipy's csr_matvec(s) sums it; a spin improves when
 * ((1 - s) - s) * field < eps.  A sweep with an improving spin draws
 * n * R uniforms and flips the improving spins whose u < 0.5.
 *
 * Logical pass.  LogicalDescender's sweep in float64: visit the
 * variables in NumPy's permutation, flip one when
 * (1 - 2 s_i) * field_i < -1e-12 and add sign * row i of the dense
 * matrix to the field.
 *
 * Build without FP contraction or -ffast-math (see
 * repro/cdcl/native.py): every operation must round like NumPy's.
 * -fno-trapping-math only lets GCC if-convert (and so vectorise) the
 * selects below, and the AVX2 and AVX-512 clones run the same IEEE
 * operations in wider lanes; neither changes a value.
 */

#include <stdint.h>
#include <string.h>

#define Y_FLOOR (-80.0f)
#define LOG2E 1.44269504088896341f
#define LN2_HI 0.693359375f
#define LN2_LO (-2.12194440e-4f)
#define ROUND_MAGIC 12582912.0f /* 1.5 * 2^23: adding it rounds to an integer */
#define ROUND_MAGIC_BITS 0x4B400000u
#define BAND_LO 0.9999847412109375f /* 1 - 2^-16 */
#define BAND_HI 1.0000152587890625f /* 1 + 2^-16 */

/* Branch-free exp for y in [-80, 0] (Cody-Waite reduction by ln 2 and
 * a degree-7 polynomial on |r| <= ln2 / 2), vectorisable. */
static inline float exp_estimate(float y) {
    float x = y < Y_FLOOR ? Y_FLOOR : y;
    float t = x * LOG2E + ROUND_MAGIC;
    float k = t - ROUND_MAGIC;
    float r = (x - k * LN2_HI) - k * LN2_LO;
    float p = ((((((1.9875691500e-4f * r + 1.3981999507e-3f) * r
                   + 8.3334519073e-3f) * r + 4.1665795894e-2f) * r
                 + 1.6666665459e-1f) * r + 5.0000001201e-1f) * (r * r)
               + r) + 1.0f;
    uint32_t bits;
    memcpy(&bits, &t, sizeof bits);
    uint32_t scale_bits = (bits - ROUND_MAGIC_BITS + 127u) << 23; /* 2^k */
    float scale;
    memcpy(&scale, &scale_bits, sizeof scale);
    return p * scale;
}

/* The band around np.exp(y): a spin flips if 2u < lo, does not if
 * 2u > hi, and is left to NumPy otherwise. */
static inline void band(float y, float *lo, float *hi) {
    float e = exp_estimate(y);
    float below = e * BAND_LO;
    *lo = y >= Y_FLOOR ? below : 0.0f;
    *hi = e * BAND_HI;
}

/* Exported for the band test: the band at each of ``y[0..size)``. */
void sweep_band(int64_t size, const float *y, float *lo, float *hi) {
    for (int64_t q = 0; q < size; q++)
        band(y[q], &lo[q], &hi[q]);
}

/* The first two couplers of each CSR row, as (2 x n) index and
 * coefficient arrays padded with (i, 0) where a row is shorter, and
 * the rows that have more.  Laid out in ``work`` (5n int32s). */
typedef struct {
    const int32_t *index;
    const float *coef;
    const int32_t *longer;
    int64_t n_longer;
} heads_t;

static heads_t row_heads(int64_t n, const int32_t *indptr,
                         const int32_t *indices, const float *coef,
                         int32_t *work) {
    int32_t *index = work;
    float *head = (float *)(work + 2 * n);
    int32_t *longer = work + 4 * n;
    int64_t n_longer = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t begin = indptr[i];
        const int32_t len = indptr[i + 1] - begin;
        index[i] = len > 0 ? indices[begin] : (int32_t)i;
        head[i] = len > 0 ? coef[begin] : 0.0f;
        index[n + i] = len > 1 ? indices[begin + 1] : (int32_t)i;
        head[n + i] = len > 1 ? coef[begin + 1] : 0.0f;
        if (len > 2)
            longer[n_longer++] = (int32_t)i;
    }
    heads_t h = {index, head, longer, n_longer};
    return h;
}

/* The first two terms of every row, one vectorised (gathering) pass. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void head_sums(int64_t n, const int32_t *restrict index,
                      const float *restrict coef, const float *restrict x,
                      float *restrict acc) {
    for (int64_t i = 0; i < n; i++)
        acc[i] = (0.0f + coef[i] * x[index[i]]) + coef[n + i] * x[index[n + i]];
}

/* acc = A x for one replica (A's CSR data ``coef``, its row heads
 * ``h``), each row summed from 0 in CSR order, as scipy's csr_matvec
 * sums it: the heads first, then the longer rows' remaining terms.  A
 * padding term adds 0 * x_i, which leaves a sum unchanged: one started
 * from +0 is never -0. */
static void products1(int64_t n, heads_t h, const int32_t *indptr,
                      const int32_t *indices, const float *coef,
                      const float *x, float *acc) {
    head_sums(n, h.index, h.coef, x, acc);
    for (int64_t t = 0; t < h.n_longer; t++) {
        const int32_t i = h.longer[t];
        float sum = acc[i];
        for (int32_t jj = indptr[i] + 2; jj < indptr[i + 1]; jj++)
            sum += coef[jj] * x[indices[jj]];
        acc[i] = sum;
    }
}

/* exponents() for one replica, from the row sums in y. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void exponents1(int64_t n, const float *restrict c, float neg_beta,
                       const float *restrict m, float *restrict y) {
    for (int64_t i = 0; i < n; i++) {
        float acc = y[i];
        float with_c = acc + c[i];
        acc = c[i] != 0.0f ? with_c : acc;
        float d = acc * m[i];
        d = d < 0.0f ? 0.0f : d;
        y[i] = d * neg_beta;
    }
}

/* y = (-beta) * max(delta, 0) for every spin and replica. */
static void exponents(int64_t n, int64_t reps, heads_t h,
                      const int32_t *indptr, const int32_t *indices,
                      const float *scaled, const float *c, float neg_beta,
                      const float *restrict m, float *restrict y) {
    if (reps == 1) {
        products1(n, h, indptr, indices, scaled, m, y);
        exponents1(n, c, neg_beta, m, y);
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        float *restrict acc = y + i * reps;
        const float *restrict mi = m + i * reps;
        int32_t jj = indptr[i];
        const int32_t end = indptr[i + 1];
        if (jj == end) {
            for (int64_t r = 0; r < reps; r++)
                acc[r] = 0.0f;
        } else {
            /* NumPy's accumulator starts at 0: 0 + a * m_j, then +=. */
            const float a = scaled[jj];
            const float *restrict mj = m + (int64_t)indices[jj] * reps;
            for (int64_t r = 0; r < reps; r++)
                acc[r] = 0.0f + a * mj[r];
            for (jj++; jj < end; jj++) {
                const float b = scaled[jj];
                const float *restrict mk = m + (int64_t)indices[jj] * reps;
                for (int64_t r = 0; r < reps; r++)
                    acc[r] += b * mk[r];
            }
        }
        const float ci = c[i];
        const int has_c = ci != 0.0f;
        for (int64_t r = 0; r < reps; r++) {
            float sum = acc[r];
            float with_c = sum + ci;
            sum = has_c ? with_c : sum;
            float d = sum * mi[r];
            d = d < 0.0f ? 0.0f : d;
            acc[r] = d * neg_beta;
        }
    }
}

/* The flip sign (-1 or 1) of every spin, and how many flips the band
 * cannot decide. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static int64_t decide(int64_t size, const float *restrict y,
                      const float *restrict u, float *restrict sign) {
    int64_t unresolved = 0;
    for (int64_t q = 0; q < size; q++) {
        float lo, hi;
        band(y[q], &lo, &hi);
        int flip = u[q] < lo;
        int keep = u[q] > hi;
        unresolved += !(flip | keep);
        sign[q] = 1.0f - 2.0f * (float)flip;
    }
    return unresolved;
}

/* numpy/random/bitgen.h: the struct behind a BitGenerator's capsule. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* ``size`` draws of rng.random(dtype=np.float32) times ``scale`` (1
 * for the uniforms, 2 for them doubled: a power of two, so exact),
 * each the top 24 bits of one uint32 draw.  PCG64 hands out each
 * 64-bit output as two uint32 draws, low half first, and holds the
 * high half back; ``carry`` is that held half (the generator's
 * has_uint32 and uinteger), so one next_uint64 call serves two draws. */
void draw_uniforms(bitgen_t *bg, int64_t *carry, int64_t size, float scale,
                   float *u) {
    const float unit = scale * (1.0f / 16777216.0f);
    int64_t held = carry[0];
    uint32_t half = (uint32_t)carry[1];
    int64_t q = 0;
    if (size > 0 && held) {
        u[q++] = (half >> 8) * unit;
        held = 0;
    }
    for (; q + 1 < size; q += 2) {
        uint64_t x = bg->next_uint64(bg->state);
        half = (uint32_t)(x >> 32);
        u[q] = ((uint32_t)x >> 8) * unit;
        u[q + 1] = (half >> 8) * unit;
    }
    if (q < size) {
        uint64_t x = bg->next_uint64(bg->state);
        half = (uint32_t)(x >> 32);
        u[q] = ((uint32_t)x >> 8) * unit;
        held = 1;
    }
    carry[0] = held;
    carry[1] = half;
}

/* Sweeps ``first..count-1``, each drawing its n x reps uniforms from
 * ``bitgen`` into ``u2`` (doubled, as NumPy doubles them).  ``scaled``
 * is the coupling CSR's data times -0.5.  Returns ``count`` when every
 * sweep was applied to ``m``, or the index of the first sweep with a
 * spin inside the band: that sweep is not applied, its exponents are
 * left in ``y`` and its doubled uniforms in ``u2``.  ``work`` (5n
 * int32s) is scratch. */
int64_t sweep_run(int64_t n, int64_t reps, const int32_t *indptr,
                  const int32_t *indices, const float *scaled,
                  const float *c, const float *neg_betas, void *bitgen,
                  int64_t *carry, int64_t first, int64_t count, float *m,
                  float *y, float *u2, float *sign, int32_t *work) {
    const int64_t size = n * reps;
    const heads_t h = row_heads(n, indptr, indices, scaled, work);
    for (int64_t k = first; k < count; k++) {
        exponents(n, reps, h, indptr, indices, scaled, c, neg_betas[k], m, y);
        draw_uniforms(bitgen, carry, size, 2.0f, u2);
        if (decide(size, y, u2, sign))
            return k;
        for (int64_t q = 0; q < size; q++)
            m[q] *= sign[q];
    }
    return count;
}

/* field = A s for every replica, each element summed as exponents
 * sums it (scipy's csr_matvecs: from 0, one axpy per coupler). */
static void products(int64_t n, int64_t reps, heads_t h,
                     const int32_t *indptr, const int32_t *indices,
                     const float *data, const float *restrict s,
                     float *restrict field) {
    if (reps == 1) {
        products1(n, h, indptr, indices, data, s, field);
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        float *restrict acc = field + i * reps;
        for (int64_t r = 0; r < reps; r++)
            acc[r] = 0.0f;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            const float a = data[jj];
            const float *restrict sj = s + (int64_t)indices[jj] * reps;
            for (int64_t r = 0; r < reps; r++)
                acc[r] += a * sj[r];
        }
    }
}

/* SimulatedAnnealingSampler's greedy descent on the (n x reps) 0/1
 * state s, at most max_sweeps sweeps; ``data`` is the coupling CSR's
 * float32 data, and ``bitgen`` and ``carry`` the sampler's generator
 * as sweep_run takes them.  ``field`` and ``u`` (n x reps floats),
 * ``flip`` (n x reps bytes) and ``work`` (5n int32s) are scratch. */
void descent_run(int64_t n, int64_t reps, const int32_t *indptr,
                    const int32_t *indices, const float *data,
                    const float *linear, float eps, int64_t max_sweeps,
                    void *bitgen, int64_t *carry, float *s, float *field,
                    float *u, uint8_t *flip, int32_t *work) {
    const int64_t size = n * reps;
    const heads_t h = row_heads(n, indptr, indices, data, work);
    for (int64_t sweep = 0; sweep < max_sweeps; sweep++) {
        products(n, reps, h, indptr, indices, data, s, field);
        int64_t improving = 0;
        for (int64_t i = 0; i < n; i++) {
            const float li = linear[i];
            for (int64_t r = 0; r < reps; r++) {
                const int64_t q = i * reps + r;
                float f = li + field[q];
                float delta = ((1.0f - s[q]) - s[q]) * f;
                flip[q] = delta < eps;
                improving += flip[q];
            }
        }
        if (!improving)
            break;
        draw_uniforms(bitgen, carry, size, 1.0f, u);
        int64_t flips = 0;
        for (int64_t q = 0; q < size; q++) {
            flip[q] = flip[q] & (u[q] < 0.5f);
            flips += flip[q];
        }
        if (!flips)
            continue;
        for (int64_t q = 0; q < size; q++)
            s[q] = flip[q] ? 1.0f - s[q] : s[q];
    }
}

/* One first-improvement pass of LogicalDescender over the variables
 * in ``order`` (n of them); ``matrix`` is the dense symmetric n x n
 * coupling matrix.  Updates ``state`` and ``field`` in place and
 * returns whether any variable flipped. */
int64_t logical_pass(int64_t n, const double *matrix, const int64_t *order,
                     double *state, double *field) {
    int64_t improved = 0;
    for (int64_t t = 0; t < n; t++) {
        const int64_t i = order[t];
        const double sign = 1.0 - 2.0 * state[i];
        if (sign * field[i] < -1e-12) {
            state[i] = 1.0 - state[i];
            const double *row = matrix + i * n;
            for (int64_t k = 0; k < n; k++)
                field[k] += sign * row[k];
            improved = 1;
        }
    }
    return improved;
}
