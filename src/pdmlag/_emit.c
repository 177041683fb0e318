/* Rows of '%.17g' fields, written straight into one output buffer.

   Each field has exactly the bytes of C's and Python's '%.17g'.  With
   X = floor(log10|x|), the 17 significant digits are the integer
   D = round(|x| * 10^(16 - X)), 10^16 <= D < 10^17.  The product is formed
   in double-double: Dekker's exact two-product of |x| with the double
   nearest 10^p, plus |x| times the remainder of 10^p (the table pow10, from
   exact integers, is the caller's).  Near 1e16..1e17 every double is an
   integer, so the fraction being rounded is that of the small correction
   term, and it is known to better than 1e-14.  Where that fraction lies
   within TIE of 1/2 the error bound cannot decide the rounding (exact
   decimal ties among them), and the field is written by snprintf, as it is
   where D falls outside [10^16, 10^17) (log10 rounded across a power of
   ten, or the rounding carried into an 18th digit), for a magnitude outside
   [TINY, HUGE] (subnormals and the ends of the range, where 10^p or the
   split would leave the normal range).  Zero is written directly, "0" or
   "-0".  The split must stay exact: build with -ffp-contract=off. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#define P_LO (-280)             /* pow10 holds 10^p from p = P_LO */
#define E16 10000000000000000LL
#define E17 100000000000000000LL
#define E8 100000000LL
/* The most bytes a field writes: its text, at most 24 ("-d." + 16 digits +
   "e-ddd"), and past it scratch that what follows overwrites */
#define WIDTH 36

static const double TINY = 1e-280, HUGE_ = 1e290, TIE = 1e-6;
static const double SPLIT = 134217729.0;         /* 2^27 + 1 */

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* the eight digits of v < 10^8 */
static void eight(uint32_t v, char *out)
{
    uint32_t a = v / 10000, b = v % 10000;
    memcpy(out, PAIRS + 2 * (a / 100), 2);
    memcpy(out + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(out + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(out + 6, PAIRS + 2 * (b % 100), 2);
}

static char *copy(char *p, const char *s, int64_t n)
{
    memcpy(p, s, n);
    return p + n;
}

/* %g's layout of (-1)^neg * D * 10^(X - 16), X = x10: fixed notation iff
   -4 <= X < 17, trailing zeros and a bare point stripped, and an exponent
   with a sign and at least two digits.  The digits are copied 16 or 17 at a
   time, whatever the number kept, so that no copy has a variable length:
   the field may write up to WIDTH bytes. */
static char *layout(int neg, int x10, int64_t d, char *p)
{
    char dg[34] = {0};          /* 17 digits, and zeros to copy past them */
    dg[0] = (char)('0' + d / E16);
    d %= E16;
    eight((uint32_t)(d / E8), dg + 1);
    eight((uint32_t)(d % E8), dg + 9);
    int k = 17;                 /* significant digits */
    while (dg[k - 1] == '0')
        k--;
    *p = '-';
    p += neg;
    if (x10 >= -4 && x10 < 17) {
        if (x10 < 0) {
            memcpy(p, "0.000000", 8);
            memcpy(p + 1 - x10, dg, 17);
            return p + 1 - x10 + k;
        }
        memcpy(p, dg, 17);
        if (k <= x10 + 1)
            return p + x10 + 1;
        p[x10 + 1] = '.';
        memcpy(p + x10 + 2, dg + x10 + 1, 16);
        return p + k + 1;
    }
    p[0] = dg[0];
    p[1] = '.';
    memcpy(p + 2, dg + 1, 16);
    p += k > 1 ? k + 1 : 1;
    *p++ = 'e';
    *p++ = x10 < 0 ? '-' : '+';
    int ax = x10 < 0 ? -x10 : x10;
    *p = (char)('0' + ax / 100);
    p += ax >= 100;
    return copy(p, PAIRS + 2 * (ax % 100), 2);
}

/* '%.17g' of x at p; returns the end.  pow10: rows hi, hi's Dekker halves
   and lo of npow entries each, hi + lo = 10^p to ~2^-106. */
static char *field(double x, const double *pow10, int64_t npow, char *p)
{
    double a = fabs(x);
    if (a >= TINY && a <= HUGE_) {
        int x10 = (int)floor(log10(a));
        int64_t i = 16 - x10 - P_LO;
        double hi = pow10[i], hh = pow10[npow + i], hl = pow10[2 * npow + i];
        double lo = pow10[3 * npow + i];
        double prod = a * hi;
        double t = a * SPLIT, ah = t - (t - a), al = a - ah;
        double err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl;
        double corr = err + a * lo, whole = floor(corr), frac = corr - whole;
        int64_t d = (int64_t)prod + (int64_t)whole;
        if (d >= E16 && fabs(frac - 0.5) >= TIE) {
            d += frac > 0.5;
            if (d < E17)
                return layout(x < 0, x10, d, p);
        }
    }
    if (x == 0) {
        *p = '-';
        p += signbit(x) != 0;
        *p = '0';
        return p + 1;
    }
    if (isnan(x))               /* Python writes no sign */
        return copy(p, "nan", 3);
    return p + snprintf(p, WIDTH, "%.17g", x);
}

/* nrows rows of ncols fields from the columns' doubles, each row head, the
   fields with sep between them, and tail; returns the bytes written.  out
   holds nrows * (nhead + ncols * (WIDTH + nsep) + ntail) bytes. */
int64_t emit_rows(int64_t nrows, int64_t ncols, const double *const *columns,
                  const double *pow10, int64_t npow, const char *head,
                  int64_t nhead, const char *sep, int64_t nsep,
                  const char *tail, int64_t ntail, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < nrows; r++) {
        p = copy(p, head, nhead);
        for (int64_t c = 0; c < ncols; c++) {
            if (c)
                p = copy(p, sep, nsep);
            p = field(columns[c][r], pow10, npow, p);
        }
        p = copy(p, tail, ntail);
    }
    return p - out;
}
