/* Native anneal sweeps for SimulatedAnnealingSampler._anneal_batch.
 *
 * Runs the batched sampler's diluted parallel Metropolis sweeps on an
 * (n, R) float32 magnetisation matrix m (replicas are columns), and
 * must leave every read bit-identical to the NumPy loop it replaces.
 * The exponent of each spin is computed with the NumPy loop's float32
 * operations in the same order:
 *
 *   acc = sum over the CSR row of (-0.5 * a_ij) * m_j, then + c_i
 *         (the augmented matrix's last column, absent where c_i == 0);
 *   y   = (-beta) * max(acc * m_i, 0).
 *
 * NumPy flips a spin iff 2u < np.exp(y).  np.exp is not libm's expf
 * (they disagree on about one float32 in nine), so this file decides a
 * flip only when 2u lies outside a relative band of 2^-16 around its
 * own exp estimate, which stays within 1e-6 of np.exp over [-80, 0]
 * (tests/annealer/test_sweep_kernel.py checks the band against
 * np.exp).  A sweep with any spin inside the band is returned
 * unapplied, its exponents left in y, for NumPy to resolve with
 * np.exp itself.  Below y = -80 the estimate is clamped and only
 * "no flip" is decided: 2u is either 0 or at least 2^-23 there.
 *
 * Build without FP contraction or -ffast-math (see
 * repro/cdcl/native.py): every operation must round like NumPy's.
 * -fno-trapping-math only lets GCC if-convert (and so vectorise) the
 * selects below, and the decision loop's AVX2 and AVX-512 clones run
 * the same IEEE operations in wider lanes; neither changes a value.
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

/* exponents() for one replica.  Rows hold a few couplers each, too
 * short to gain from GCC's in-order vector reduction. */
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
static void exponents1(int64_t n, const int32_t *indptr,
                       const int32_t *indices, const float *scaled,
                       const float *c, float neg_beta, const float *m,
                       float *y) {
    for (int64_t i = 0; i < n; i++) {
        float acc = 0.0f;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++)
            acc += scaled[jj] * m[indices[jj]];
        float with_c = acc + c[i];
        acc = c[i] != 0.0f ? with_c : acc;
        float d = acc * m[i];
        d = d < 0.0f ? 0.0f : d;
        y[i] = d * neg_beta;
    }
}

/* y = (-beta) * max(delta, 0) for every spin and replica. */
static void exponents(int64_t n, int64_t reps, const int32_t *indptr,
                      const int32_t *indices, const float *scaled,
                      const float *c, float neg_beta,
                      const float *restrict m, float *restrict y) {
    if (reps == 1) {
        exponents1(n, indptr, indices, scaled, c, neg_beta, m, y);
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

/* Sweeps ``first..count-1`` of one chunk of pre-drawn, pre-doubled
 * uniforms ``u2`` (count x n x reps).  ``scaled`` is the coupling CSR's
 * data times -0.5.  Returns ``count`` when every sweep was applied to
 * ``m``, or the index of the first sweep with a spin inside the band:
 * that sweep is not applied and its exponents are left in ``y``. */
int64_t sweep_run(int64_t n, int64_t reps, const int32_t *indptr,
                  const int32_t *indices, const float *scaled,
                  const float *c, const float *neg_betas, const float *u2,
                  int64_t first, int64_t count, float *m, float *y,
                  float *sign) {
    const int64_t size = n * reps;
    for (int64_t k = first; k < count; k++) {
        exponents(n, reps, indptr, indices, scaled, c, neg_betas[k], m, y);
        if (decide(size, y, u2 + k * size, sign))
            return k;
        for (int64_t q = 0; q < size; q++)
            m[q] *= sign[q];
    }
    return count;
}
