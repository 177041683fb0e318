/* Sturm counts and bisection of LAPACK's dstebz and dlaebz.

   dlaebz, called as dstebz calls it (NBMIN = 0), runs one Sturm chain at a
   time, and every row of a chain waits on one division.  These routines run
   many chains side by side, rows outer and chains inner, so that their
   divisions overlap, in vector lanes (in AVX2 where the CPU has it:
   sturm_wide says which copy runs), all in one count loop whose pivot rule
   is a threshold.  The bisection looks a few steps ahead: one pass over the
   matrix counts at every point that an interval's next steps can reach,
   and the steps are then made one at a time from those counts.  Each
   chain does dlaebz's arithmetic in dlaebz's order, and each step is
   dlaebz's, so every count and every interval end is bit for bit its own;
   build with -ffp-contract=off.  sturm_select is dstebz's index
   bisection of a matrix that does not split, in dstebz's arithmetic, with
   every value placed by its count, as dstebz places it.  Arrays of two per
   interval are (lower, upper) pairs. */
#include <float.h>
#include <math.h>
#include <stdint.h>

/* The Sturm count at the m points c, the one count loop of every IJOB: a
   pivot at most lim is counted, and one also above -pivmin is then taken as
   -pivmin.  IJOB 2 and 3 count at lim = pivmin; IJOB 1's rule (a pivot
   smaller than pivmin in magnitude taken as -pivmin, then counted if at
   most 0) is lim = the double below pivmin (sturm_count).  Branch-free,
   with the counts as doubles, so that the compiler runs the chains in
   vector lanes (-O3), each lane in its own IEEE arithmetic; always inlined,
   so that the AVX2 copy below compiles it for AVX2.  t: m doubles. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WIDE 1
__attribute__((always_inline))
#endif
static inline void counts(int64_t n, const double *restrict d,
                          const double *restrict e2, double pivmin,
                          double lim, int64_t m, const double *restrict c,
                          double *restrict t, double *restrict count)
{
    for (int64_t i = 0; i < m; i++) {
        double v = d[0] - c[i];
        count[i] = v <= lim;
        t[i] = (v <= lim) & (v > -pivmin) ? -pivmin : v;
    }
    for (int64_t r = 1; r < n; r++)
        for (int64_t i = 0; i < m; i++) {
            double v = d[r] - e2[r - 1] / t[i] - c[i];
            count[i] += v <= lim;
            t[i] = (v <= lim) & (v > -pivmin) ? -pivmin : v;
        }
}

#ifdef WIDE
/* The same loop in AVX2, taken where the CPU has it (sturm_wide = 1). */
__attribute__((target("avx2")))
static void wide_counts(int64_t n, const double *d, const double *e2,
                        double pivmin, double lim, int64_t m, const double *c,
                        double *t, double *count)
{
    counts(n, d, e2, pivmin, lim, m, c, t, count);
}

int sturm_wide;

__attribute__((constructor)) static void choose_counts(void)
{
    __builtin_cpu_init();
    sturm_wide = __builtin_cpu_supports("avx2") != 0;
}
#define COUNTS (sturm_wide ? wide_counts : counts)
#else
int sturm_wide = 0;
#define COUNTS counts
#endif

/* IJOB 1: count[i] = the number of eigenvalues below x[i], for m shifts x
   (work: 2m doubles). */
void sturm_count(int64_t n, const double *d, const double *e2, double pivmin,
                 int64_t m, const double *x, int64_t *count, double *work)
{
    COUNTS(n, d, e2, pivmin, nextafter(pivmin, -INFINITY), m, x, work,
           work + m);
    for (int64_t i = 0; i < m; i++)
        count[i] = (int64_t)work[m + i];
}

/* Chains per pass over the matrix that the lookahead aims at: about as many
   as cost one chain's time in the vector lanes. */
#define CHAINS 16

/* dlaebz's loop, IJOB 2 (nval NULL) or 3, on the intervals live[0..left) of
   ab, whose ends count nab, with c[k] the next point of interval live[k].
   A step counts at the point and moves an end there: for IJOB 3 the lower
   end where the count is at most nval[i], the upper where at least; for
   IJOB 2 the end whose count the step's, kept between the two, repeats.  An
   IJOB 2 step that counts strictly between the ends splits the interval
   while *m < mmax: its upper part becomes interval (*m)++, which inherits
   the steps left (dlaebz's queue).  Else info[i] = 2 and the interval stops
   as it was (dlaebz's MMAX + 1).  An interval stops with info[i] = 0 once
   narrower than max(abstol, pivmin, reltol * its larger end in magnitude)
   or holding no value, and keeps info[i] = 1 when it runs out of steps
   (room[i] counts them down); else its next point is its midpoint.

   Each pass over the matrix looks s steps ahead (multisection): it counts
   at every point that an interval's next s steps can reach, the nodes of
   its depth-s bisection tree, whose root is the next point p of [L, R] and
   whose children are 0.5 (L + p) and 0.5 (p + R), the midpoints that a
   step forms.  The s steps are then made one at a time, every interval's
   step before the next, each from the count at its own node; a split
   interval's halves go on at the two children.  So every point, count and
   end is the serial loop's.  s is the deepest tree whose chains for all
   live intervals fit CHAINS, at most the most steps any has left.  live, c
   and at: room for every interval; work: 3 max(intervals + 3, CHAINS)
   doubles. */
static void bisect(int64_t n, const double *d, const double *e2,
                   double pivmin, double abstol, double reltol,
                   const int64_t *nval, double *ab, int64_t *nab,
                   int64_t *room, int64_t *info, int64_t *live, int64_t left,
                   int64_t *m, int64_t mmax, double *c, int64_t *at,
                   double *work)
{
    double tol = abstol > pivmin ? abstol : pivmin;
    while (left) {
        int64_t s = 1, most = 0;
        for (int64_t k = 0; k < left; k++)
            most = room[live[k]] > most ? room[live[k]] : most;
        while (s < most && left * ((2 << s) - 1) <= CHAINS)
            s++;
        /* interval live[k]'s node j (1 the root) is chain at = k size + j - 1;
           its children are chains at + j and at + j + 1 */
        int64_t size = ((int64_t)1 << s) - 1, chains = (left * size + 3) & ~3;
        double *x = work, *t = work + chains, *count = t + chains;
        for (int64_t k = 0; k < left; k++) {
            double *node = x + k * size, lo[CHAINS + 1], hi[CHAINS + 1];
            lo[1] = ab[2 * live[k]];
            hi[1] = ab[2 * live[k] + 1];
            node[0] = c[k];
            for (int64_t j = 1; 2 * j < size; j++) {
                lo[2 * j] = lo[j];
                hi[2 * j] = lo[2 * j + 1] = node[j - 1];
                hi[2 * j + 1] = hi[j];
                node[2 * j - 1] = 0.5 * (lo[j] + node[j - 1]);
                node[2 * j] = 0.5 * (node[j - 1] + hi[j]);
            }
            at[k] = k * size;
        }
        for (int64_t k = left * size; k < chains; k++)
            x[k] = x[0];
        COUNTS(n, d, e2, pivmin, pivmin, chains, x, t, count);
        for (int64_t step = 0; step < s && left; step++) {
            int64_t all = left;
            for (int64_t k = 0; k < left; k++) {
                int64_t i = live[k], lo = nab[2 * i], hi = nab[2 * i + 1],
                        q = at[k], j = q % size + 1, cnt = (int64_t)count[q];
                room[i]--;
                at[k] = q + j;
                if (nval) {
                    if (cnt <= nval[i]) {
                        ab[2 * i] = x[q];
                        nab[2 * i] = cnt;
                        at[k] = q + j + 1;
                    }
                    if (cnt >= nval[i]) {
                        ab[2 * i + 1] = x[q];
                        nab[2 * i + 1] = cnt;
                    }
                    continue;
                }
                int64_t below = cnt > lo ? cnt : lo;
                below = below < hi ? below : hi;
                if (below == hi)
                    ab[2 * i + 1] = x[q];
                else if (below == lo) {
                    ab[2 * i] = x[q];
                    at[k] = q + j + 1;
                } else if (*m < mmax) {
                    int64_t u = (*m)++;
                    ab[2 * u] = x[q];
                    ab[2 * u + 1] = ab[2 * i + 1];
                    nab[2 * u] = below;
                    nab[2 * u + 1] = hi;
                    ab[2 * i + 1] = x[q];
                    nab[2 * i + 1] = below;
                    room[u] = room[i];
                    info[u] = 1;
                    at[all] = q + j + 1;
                    live[all++] = u;
                } else {
                    info[i] = 2;
                    live[k] = -1;
                }
            }
            int64_t kept = 0;
            for (int64_t k = 0; k < all; k++) {
                int64_t i = live[k];
                if (i < 0)
                    continue;
                double a = fabs(ab[2 * i]), b = fabs(ab[2 * i + 1]);
                double rel = reltol * (a > b ? a : b);
                if (fabs(ab[2 * i + 1] - ab[2 * i]) < (tol > rel ? tol : rel)
                    || nab[2 * i] >= nab[2 * i + 1])
                    info[i] = 0;
                else if (room[i] > 0) {
                    at[kept] = at[k];
                    live[kept] = i;
                    c[kept++] = 0.5 * (ab[2 * i] + ab[2 * i + 1]);
                }
            }
            left = kept;
        }
    }
}

/* IJOB 2: bisect each of m windows ab[2i..2i+1], whose ends count
   nab[2i..2i+1], in place, for at most nitmax[i] steps, until it is
   narrower than max(abstol, pivmin, reltol * its larger end in magnitude).
   steps[i] takes the steps made and info[i] dlaebz's INFO: 0 when the
   window converged, 1 when it did not, 2 when a step counted strictly
   between its ends (dlaebz's MMAX + 1, with the window as before that
   step).  work: 4m + 48 doubles; iwork: 2m integers. */
void sturm_bisect(int64_t n, const double *d, const double *e2, double pivmin,
                  double abstol, double reltol, int64_t m, double *ab,
                  int64_t *nab, const int64_t *nitmax, int64_t *steps,
                  int64_t *info, double *work, int64_t *iwork)
{
    int64_t *live = iwork, left = 0;
    for (int64_t i = 0; i < m; i++) {
        steps[i] = nitmax[i];
        info[i] = 1;
        if (nitmax[i] > 0) {
            work[left] = 0.5 * (ab[2 * i] + ab[2 * i + 1]);
            live[left++] = i;
        }
    }
    int64_t windows = m;
    bisect(n, d, e2, pivmin, abstol, reltol, 0, ab, nab, steps, info, live,
           left, &windows, m, work, iwork + m, work + m);
    for (int64_t i = 0; i < m; i++)
        steps[i] = nitmax[i] > 0 ? nitmax[i] - steps[i] : 0;
}

static double larger(double a, double b) { return b > a ? b : a; }
static double smaller(double a, double b) { return b < a ? b : a; }

/* The Gershgorin interval of the matrix, with off-diagonal magnitudes
   sqrt(e2[j]) where e2 is given, else |e[j]|, fudged as dstebz fudges it,
   by 2.1 (ulp * its larger end in magnitude * n + lower * pivmin) at the
   lower end and 2.1 (... + pivmin) at the upper; *norm takes that end. */
static void gershgorin(int64_t n, const double *d, const double *e,
                       const double *e2, double pivmin, double lower,
                       double *gl, double *gu, double *norm)
{
    const double fudge = 2.1, ulp = DBL_EPSILON;
    double tmp1 = 0.0;
    *gl = *gu = d[0];
    for (int64_t j = 0; j < n - 1; j++) {
        double tmp2 = e2 ? sqrt(e2[j]) : fabs(e[j]);
        *gu = larger(*gu, d[j] + tmp1 + tmp2);
        *gl = smaller(*gl, d[j] - tmp1 - tmp2);
        tmp1 = tmp2;
    }
    *gu = larger(*gu, d[n - 1] + tmp1);
    *gl = smaller(*gl, d[n - 1] - tmp1);
    *norm = larger(fabs(*gl), fabs(*gu));
    *gl = *gl - fudge * *norm * ulp * n - fudge * lower * pivmin;
    *gu = *gu + fudge * *norm * ulp * n + fudge * pivmin;
}

/* dstebz's cap on the steps of a bisection over a width w:
   INT((LOG(w + PIVMIN) - LOG(PIVMIN)) / LOG(2)) + 2, or none where that is
   not finite (Fortran's INT then gives a negative number). */
static int64_t step_cap(double w, double pivmin)
{
    double x = (log(w + pivmin) - log(pivmin)) / log(2.0);
    return x < 0x1p62 ? (int64_t)x + 2 : 0;
}

/* dstebz with RANGE = 'I' (RANGE = 'A' where il = 1 and iu = n), ORDER = 'E'
   and abstol > 0, on a matrix (d, e) that does not split, whose squared
   off-diagonal is e2 and pivot floor pivmin: the eigenvalues il..iu,
   ascending, in w (n doubles); result takes dstebz's M and INFO.

   The steps are dstebz's: the Gershgorin interval from sqrt(e2), dlaebz
   IJOB 3 on two chains that search it, from its ends, for the points that
   count il - 1 and iu; the Gershgorin interval from |e|, cut to those
   points; IJOB 1 at its ends; IJOB 2 on it, with room for n intervals, so
   that each value gets an interval of its own; each interval's midpoint
   placed by its counts; and the values beyond il..iu discarded.  work:
   6n + 48 doubles; iwork: 6n integers. */
void sturm_select(int64_t n, const double *d, const double *e,
                  const double *e2, double pivmin, double abstol,
                  int64_t il, int64_t iu, double *w, int64_t *result,
                  double *work, int64_t *iwork)
{
    const double reltol = 2 * DBL_EPSILON;
    double *ab = work, *c = work + 2 * n, *chains = work + 3 * n;
    int64_t *nab = iwork, *live = iwork + 2 * n, *at = iwork + 3 * n,
            *room = iwork + 4 * n, *info = iwork + 5 * n;
    int all = il == 1 && iu == n, ncnvrg = 0;
    double wl = 0.0, wlu = 0.0, wul = 0.0, wu = 0.0, gl, gu, norm;
    int64_t nwl = 0, nwu = 0, m = 0;
    result[0] = result[1] = 0;
    if (n == 1) {
        w[0] = d[0];
        result[0] = 1;
        return;
    }
    if (!all) {
        int64_t nval[2] = {il - 1, iu}, searches = 2;
        gershgorin(n, d, e, e2, pivmin, 2.0, &gl, &gu, &norm);
        ab[0] = ab[2] = c[0] = gl;
        ab[1] = ab[3] = c[1] = gu;
        nab[0] = nab[2] = -1;
        nab[1] = nab[3] = n + 1;
        room[0] = room[1] = step_cap(norm, pivmin);
        live[0] = 0;
        live[1] = 1;
        bisect(n, d, e2, pivmin, abstol, reltol, nval, ab, nab, room, info,
               live, room[0] > 0 ? 2 : 0, &searches, 2, c, at, chains);
        wl = ab[0];
        wlu = ab[1];
        nwl = nab[0];
        wul = ab[2];
        wu = ab[3];
        nwu = nab[3];
        if (nwl < 0 || nwl >= n || nwu < 1 || nwu > n) {
            result[1] = 4;
            return;
        }
    }
    gershgorin(n, d, e, 0, pivmin, 1.0, &gl, &gu, &norm);
    if (!all && gu < wl)
        nwl = nwu = n;
    else if (!all && larger(gl, wl) >= smaller(gu, wu))
        nwl = nwu = 0;
    else {
        int64_t intervals = 1;
        if (!all) {
            gl = larger(gl, wl);
            gu = smaller(gu, wu);
        }
        ab[0] = gl;
        ab[1] = gu;
        sturm_count(n, d, e2, pivmin, 2, ab, nab, chains);
        nwl = nab[0];
        nwu = nab[1];
        room[0] = step_cap(gu - gl, pivmin);
        info[0] = 1;
        c[0] = 0.5 * (gl + gu);
        live[0] = 0;
        bisect(n, d, e2, pivmin, abstol, reltol, 0, ab, nab, room, info, live,
               room[0] > 0, &intervals, n, c, at, chains);
        for (int64_t i = 0; i < intervals; i++) {
            double x = 0.5 * (ab[2 * i] + ab[2 * i + 1]);
            ncnvrg |= info[i] != 0;
            for (int64_t j = nab[2 * i]; j < nab[2 * i + 1]; j++)
                w[j - nwl] = x;
        }
        m = nwu - nwl;
    }
    int toofew = 0;
    if (!all) {
        int64_t low = il - 1 - nwl, high = nwu - iu, kept = 0;
        if (low > 0 || high > 0) {
            for (int64_t j = 0; j < m; j++)
                if (w[j] <= wlu && low > 0)
                    low--;
                else if (w[j] >= wul && high > 0)
                    high--;
                else
                    w[kept++] = w[j];
            m = kept;
        }
        if ((low > 0 || high > 0) && m > 0) {
            /* what bad arithmetic left: the lowest `low` and the highest
               `high` values, the first of equals first */
            int64_t *gone = live, lows = low > 0 ? low : 0;
            for (int64_t j = 0; j < m; j++)
                gone[j] = 0;
            for (int64_t k = 0; k < lows + (high > 0 ? high : 0); k++) {
                int64_t pick = -1;
                for (int64_t j = 0; j < m; j++)
                    if (!gone[j] && (pick < 0 || (k < lows ? w[j] < w[pick]
                                                          : w[j] > w[pick])))
                        pick = j;
                if (pick >= 0)
                    gone[pick] = 1;
            }
            kept = 0;
            for (int64_t j = 0; j < m; j++)
                if (!gone[j])
                    w[kept++] = w[j];
            m = kept;
        }
        toofew = low < 0 || high < 0;
    }
    result[0] = m;
    result[1] = ncnvrg + 2 * (toofew || m != iu - il + 1);
}
