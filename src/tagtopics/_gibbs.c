/* One collapsed Gibbs sweep over every token position, in order.
 *
 * Runs the algorithm of the generated pure-Python sweep in _gibbs.py, so
 * both give bit-identical results. Build with -ffp-contract=off: a fused
 * multiply-add would round differently. All arrays are C-contiguous; the
 * tokens of document d are offsets[d] up to offsets[d + 1]. The caller
 * checks every array once and hands in z, offsets and word_of as copies only
 * it and this kernel hold; the kernel writes z only with topics in [0, k),
 * so every index it follows stays in range and no sweep checks them again.
 *
 * After n_docs and k come the fields of _gibbs.SweepState in order, then
 * the sampler's own arrays: its count tables n_dt, n_tw and n_t, their
 * float64 factor tables f_dt = n_dt + alpha, f_tw = n_tw + word_prior and
 * f_t = n_t + prior_total, each entry the double its count gives, and
 * `weights`; last the generator: its `next_double` and the `bitgen` state
 * it takes, numpy's BitGenerator.ctypes pair. Each token's uniform is one
 * next_double(bitgen) call, in token order, so a sweep reads exactly the
 * doubles, and leaves the generator in exactly the state, of
 * Generator.random(N). The caller holds the generator's lock for the sweep.
 * A topic other than the token's old topic weighs f_dt * f_tw / f_t; the
 * old topic's weight lowers its three counts inline, so the token is never
 * removed and re-added. The running sum of the weights goes into `weights`,
 * and the draw picks the first topic whose sum exceeds it. Counts, factors
 * and z are written only when the token moves to another topic.
 *
 * A sampler opens only on priors _gibbs.check_weights accepts, which keep
 * every weight, and so every weight total, positive and finite. So the
 * running sums never decrease, and a draw r in the old topic's own bracket,
 * r < weights[t] and (t == 0 or r >= weights[t - 1]), is exactly the draw
 * the search sends to t: the kernel tests that bracket first and, when r
 * falls in it, goes on to the next token without searching.
 */

#include <stdint.h>

/* numpy's bitgen_t next_double: one uniform in [0, 1) from the state. */
typedef double (*next_double_fn)(void *bitgen);

/* Add step (+1 or -1) to topic t's three counts and refresh their factors. */
static void count(int64_t t, int64_t step, int64_t *row_d, double *fd,
                  int64_t *row_w, double *fw, const double *pw, int64_t *n_t,
                  double *f_t, const double *prior_total, double alpha)
{
    row_d[t] += step;
    fd[t] = (double)row_d[t] + alpha;
    row_w[t] += step;
    fw[t] = (double)row_w[t] + pw[t];
    n_t[t] += step;
    f_t[t] = (double)n_t[t] + prior_total[t];
}

void tagtopics_sweep(int64_t n_docs, int64_t k, int32_t *z,
                     const int64_t *offsets, const int32_t *word_of,
                     const double *word_prior, const double *prior_total,
                     double alpha, int64_t *n_dt, int64_t *n_tw, int64_t *n_t,
                     double *f_dt, double *f_tw, double *f_t,
                     double *weights, next_double_fn next_double, void *bitgen)
{
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *row_d = n_dt + d * k;
        double *fd = f_dt + d * k;
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            int64_t *row_w = n_tw + (int64_t)word_of[i] * k;
            double *fw = f_tw + (int64_t)word_of[i] * k;
            const double *pw = word_prior + (int64_t)word_of[i] * k;
            int64_t t = z[i];
            double acc = 0.0;
            for (int64_t tt = 0; tt < t; tt++) {
                acc += fd[tt] * fw[tt] / f_t[tt];
                weights[tt] = acc;
            }
            acc += ((double)(row_d[t] - 1) + alpha)
                   * ((double)(row_w[t] - 1) + pw[t])
                   / ((double)(n_t[t] - 1) + prior_total[t]);
            weights[t] = acc;
            for (int64_t tt = t + 1; tt < k; tt++) {
                acc += fd[tt] * fw[tt] / f_t[tt];
                weights[tt] = acc;
            }
            double r = next_double(bitgen) * acc;
            if (r < weights[t] && (t == 0 || r >= weights[t - 1]))
                continue;
            int64_t new_t = k - 1;
            for (int64_t tt = 0; tt < k - 1; tt++) {
                if (r < weights[tt]) {
                    new_t = tt;
                    break;
                }
            }
            if (new_t != t) {
                z[i] = (int32_t)new_t;
                count(t, -1, row_d, fd, row_w, fw, pw, n_t, f_t, prior_total, alpha);
                count(new_t, 1, row_d, fd, row_w, fw, pw, n_t, f_t, prior_total, alpha);
            }
        }
    }
}
