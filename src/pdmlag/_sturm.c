/* Sturm counts and bisection of LAPACK's dlaebz for a batch of windows.

   dlaebz, called as dstebz calls it on an unsplit matrix (MMAX = MINP = 1,
   NBMIN = 0), runs one Sturm chain at a time, and every row of a chain waits
   on one division.  These routines run the chains of a whole batch side by
   side, rows outer and windows inner, so that the divisions of different
   windows overlap.  Each chain does dlaebz's arithmetic in dlaebz's order,
   so every count and every interval end is bit for bit its own; build with
   -ffp-contract=off.  Arrays of two per window are (lower, upper) pairs. */
#include <math.h>
#include <stdint.h>

/* IJOB 1: count[i] = the number of eigenvalues below x[i], for m shifts x
   (t: m doubles of workspace).  A pivot smaller than pivmin in magnitude
   counts as -pivmin. */
void sturm_count(int64_t n, const double *d, const double *e2, double pivmin,
                 int64_t m, const double *x, int64_t *count, double *t)
{
    for (int64_t i = 0; i < m; i++) {
        double v = d[0] - x[i];
        if (v < pivmin && v > -pivmin)
            v = -pivmin;
        count[i] = v <= 0;
        t[i] = v;
    }
    for (int64_t r = 1; r < n; r++)
        for (int64_t i = 0; i < m; i++) {
            double v = d[r] - e2[r - 1] / t[i] - x[i];
            if (v < pivmin && v > -pivmin)
                v = -pivmin;
            count[i] += v <= 0;
            t[i] = v;
        }
}

/* The IJOB 2 count at the m shifts c: a pivot at most pivmin is counted and
   then taken as min(pivot, -pivmin). */
static void bisection_counts(int64_t n, const double *d, const double *e2,
                             double pivmin, int64_t m, const double *c,
                             double *t, int64_t *count)
{
    for (int64_t i = 0; i < m; i++) {
        double v = d[0] - c[i];
        count[i] = v <= pivmin;
        t[i] = v <= pivmin && v > -pivmin ? -pivmin : v;
    }
    for (int64_t r = 1; r < n; r++)
        for (int64_t i = 0; i < m; i++) {
            double v = d[r] - e2[r - 1] / t[i] - c[i];
            count[i] += v <= pivmin;
            t[i] = v <= pivmin && v > -pivmin ? -pivmin : v;
        }
}

/* IJOB 2: bisect each of m windows ab[2i..2i+1], whose ends count
   nab[2i..2i+1], in place, for at most nitmax[i] steps, until it is
   narrower than max(abstol, pivmin, reltol * its larger end in magnitude).
   steps[i] takes the steps made and info[i] dlaebz's INFO: 0 when the
   window converged, 1 when it did not, 2 when a step counted strictly
   between its ends (dlaebz's MMAX + 1, with the window as before that
   step).  work and iwork: 2m doubles and 2m integers of workspace. */
void sturm_bisect(int64_t n, const double *d, const double *e2, double pivmin,
                  double abstol, double reltol, int64_t m, double *ab,
                  int64_t *nab, const int64_t *nitmax, int64_t *steps,
                  int64_t *info, double *work, int64_t *iwork)
{
    double *c = work, *t = work + m;
    int64_t *live = iwork, *count = iwork + m, left = 0;
    for (int64_t i = 0; i < m; i++) {
        steps[i] = 0;
        info[i] = 1;
        if (nitmax[i] > 0)
            live[left++] = i;
    }
    while (left) {
        for (int64_t k = 0; k < left; k++)
            c[k] = 0.5 * (ab[2 * live[k]] + ab[2 * live[k] + 1]);
        bisection_counts(n, d, e2, pivmin, left, c, t, count);
        int64_t kept = 0;
        for (int64_t k = 0; k < left; k++) {
            int64_t i = live[k], lo = nab[2 * i], hi = nab[2 * i + 1];
            int64_t below = count[k] > lo ? count[k] : lo;
            below = below < hi ? below : hi;
            steps[i]++;
            if (below == hi)
                ab[2 * i + 1] = c[k];
            else if (below == lo)
                ab[2 * i] = c[k];
            else {
                info[i] = 2;
                continue;
            }
            double a = fabs(ab[2 * i]), b = fabs(ab[2 * i + 1]);
            double rel = reltol * (a > b ? a : b);
            double tol = abstol > pivmin ? abstol : pivmin;
            if (fabs(ab[2 * i + 1] - ab[2 * i]) < (tol > rel ? tol : rel)
                || lo >= hi)
                info[i] = 0;
            else if (steps[i] < nitmax[i])
                live[kept++] = i;
        }
        left = kept;
    }
}
