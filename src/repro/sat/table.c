/* Native reads of a formula: the DIMACS read (parse_dimacs on the plain
 * form of a document), a clause table's row text (ClauseTable.text), and
 * the result cache's inclusion test between two packed clause-signature
 * blobs (sigs_subset).
 *
 * dimacs_read.  Reads a document only in its plain form:
 *   - lines end at CR or LF; inside a line, space and tab separate;
 *   - comment lines (first non-blank byte 'c') of printable ASCII and
 *     tab, before the header or among the body lines;
 *   - one header "p cnf <vars> <clauses>", the counts in ASCII digits;
 *   - body tokens of ASCII digits with an optional leading '-', each at
 *     most MAX_VAR in magnitude;
 *   - an optional line starting with '%' that ends the body (what
 *     follows it is never read).
 * It also reads only what the NumPy path accepts: in strict mode every
 * literal within the header's variable count and as many clauses as the
 * header declares, and in both modes a 0 after the last clause.  On
 * anything else it returns READ_FALLBACK, and the caller runs the NumPy
 * path, which reads the document its own way or raises the DimacsError
 * with its message and line number.
 *
 * The body's tokens are cut at the 0 terminators into rows, each row
 * sorted into Clause order (by variable, the positive literal first)
 * with repeats dropped, and the rows written zero-padded to the longest
 * row's width: ClauseTable.canonical of the body.
 *
 * No static state: ctypes releases the GIL, so threads may read at once.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* repro.sat.cnf.MAX_VAR */
#define MAX_VAR ((i64)1 << 61)

enum { READ_OK = 0, READ_GROW = 1, READ_FALLBACK = -1 };

static int is_blank(uint8_t b)
{
    return b == ' ' || b == '\t';
}

static int is_eol(uint8_t b)
{
    return b == '\n' || b == '\r';
}

/* The end of the comment line whose text starts at ``i``, or -1 for a
 * byte outside printable ASCII and tab. */
static i64 skip_comment(const uint8_t *s, i64 i, i64 n)
{
    for (; i < n && !is_eol(s[i]); i++)
        if ((s[i] < 0x20 && s[i] != '\t') || s[i] > 0x7e)
            return -1;
    return i;
}

/* The ASCII digits at ``*i`` as a number at most ``limit``, moving ``*i``
 * past them; -1 when there are none or the number exceeds ``limit``. */
static i64 digits(const uint8_t *s, i64 *i, i64 n, i64 limit)
{
    i64 start = *i, value = 0;
    for (; *i < n && s[*i] >= '0' && s[*i] <= '9'; (*i)++) {
        i64 d = s[*i] - '0';
        if (value > (limit - d) / 10)
            return -1;
        value = value * 10 + d;
    }
    return *i > start ? value : -1;
}

static i64 skip_blanks(const uint8_t *s, i64 i, i64 n)
{
    while (i < n && is_blank(s[i]))
        i++;
    return i;
}

/* The header's counts; returns the index just past its last count's
 * trailing blanks (the line's end), or -1 when the lines before it are
 * not blank or comments, or the header is not plain. */
static i64 read_header(const uint8_t *s, i64 n, i64 *num_vars, i64 *num_clauses)
{
    i64 i = 0;
    for (;;) {
        i = skip_blanks(s, i, n);
        if (i == n)
            return -1;
        if (is_eol(s[i])) {
            i++;
            continue;
        }
        if (s[i] != 'c')
            break;
        if ((i = skip_comment(s, i + 1, n)) < 0)
            return -1;
    }
    if (s[i] != 'p' || i + 1 == n || !is_blank(s[i + 1]))
        return -1;
    i = skip_blanks(s, i + 1, n);
    if (n - i < 4 || memcmp(s + i, "cnf", 3) != 0 || !is_blank(s[i + 3]))
        return -1;
    i = skip_blanks(s, i + 3, n);
    *num_vars = digits(s, &i, n, MAX_VAR);
    if (*num_vars < 0 || i == n || !is_blank(s[i]))
        return -1;
    i = skip_blanks(s, i, n);
    *num_clauses = digits(s, &i, n, INT64_MAX);
    if (*num_clauses < 0)
        return -1;
    i = skip_blanks(s, i, n);
    return i == n || is_eol(s[i]) ? i : -1;
}

static int compare_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Sort a row's literal keys (2 * variable + negative) and drop repeats;
 * returns the row's new length. */
static i64 canonical_row(i64 *keys, i64 size)
{
    if (size > 16) {
        qsort(keys, (size_t)size, sizeof(i64), compare_i64);
    } else {
        for (i64 i = 1; i < size; i++) {
            i64 q = keys[i], j = i;
            while (j > 0 && keys[j - 1] > q) {
                keys[j] = keys[j - 1];
                j--;
            }
            keys[j] = q;
        }
    }
    i64 kept = size ? 1 : 0;
    for (i64 i = 1; i < size; i++)
        if (keys[i] != keys[kept - 1])
            keys[kept++] = keys[i];
    return kept;
}

/* Read the ``n`` bytes of ``text`` (``strict``: 1 or 0).  ``counts``
 * receives num_vars (lenient: raised to the largest variable), the row
 * count m and the width w; ``out`` (``capacity`` cells) the m x w table.
 * Returns READ_OK, READ_GROW when m * w exceeds ``capacity`` (the counts
 * are set; call again with a buffer that large), or READ_FALLBACK. */
i64 dimacs_read(const uint8_t *text, i64 n, i64 strict, i64 capacity,
                i64 *out, i64 *counts)
{
    i64 num_vars, num_clauses;
    i64 i = read_header(text, n, &num_vars, &num_clauses);
    if (i < 0)
        return READ_FALLBACK;
    /* Tokens are at least one byte each and separated, so a document
     * holds at most n / 2 + 1 literals and as many rows. */
    i64 bound = n / 2 + 1;
    i64 *keys = malloc((size_t)(2 * bound) * sizeof(i64));
    if (!keys)
        return READ_FALLBACK;
    i64 *lengths = keys + bound;
    i64 used = 0, start = 0, rows = 0, width = 0, most = 0;
    i64 status = READ_OK;
    while (i < n) {
        /* A line's first non-blank byte decides its kind. */
        i = skip_blanks(text, i, n);
        if (i == n)
            break;
        if (is_eol(text[i])) {
            i++;
            continue;
        }
        if (text[i] == 'c') {
            if ((i = skip_comment(text, i + 1, n)) < 0)
                goto fallback;
            continue;
        }
        if (text[i] == '%')
            break;
        while (i < n && !is_eol(text[i])) {
            if (is_blank(text[i])) {
                i++;
                continue;
            }
            i64 negative = text[i] == '-';
            i += negative;
            i64 var = digits(text, &i, n, MAX_VAR);
            if (var < 0 || (i < n && !is_blank(text[i]) && !is_eol(text[i])))
                goto fallback; /* also a second problem line */
            if (var == 0) {
                i64 size = canonical_row(keys + start, used - start);
                used = start + size;
                start = used;
                lengths[rows++] = size;
                if (size > width)
                    width = size;
                continue;
            }
            if (strict && var > num_vars)
                goto fallback;
            if (var > most)
                most = var;
            keys[used++] = 2 * var + negative;
        }
    }
    if (used > start || (strict && rows != num_clauses))
        goto fallback; /* an unterminated last clause, a clause count */
    counts[0] = num_vars > most ? num_vars : most;
    counts[1] = rows;
    counts[2] = width;
    if (width && rows > capacity / width) {
        status = READ_GROW;
    } else {
        const i64 *key = keys;
        for (i64 r = 0; r < rows; r++) {
            i64 j = 0;
            for (; j < lengths[r]; j++, key++)
                *out++ = *key & 1 ? -(*key >> 1) : *key >> 1;
            for (; j < width; j++)
                *out++ = 0;
        }
    }
    free(keys);
    return status;
fallback:
    free(keys);
    return READ_FALLBACK;
}

/* Rows a and b compared as Python compares their tuples of nonzero
 * literals (a zero cell sorts below every literal). */
static int row_order(const i64 *a, const i64 *b, i64 w)
{
    for (i64 j = 0; j < w; j++) {
        i64 x = a[j] ? a[j] : INT64_MIN, y = b[j] ? b[j] : INT64_MIN;
        if (x != y)
            return x < y ? -1 : 1;
    }
    return 0;
}

/* The row indices of the m x w table in row_order, by a bottom-up merge
 * sort between ``order`` and ``spare`` (m entries each); returns the
 * one of the two that holds the sorted indices. */
static i64 *sort_rows(i64 m, i64 w, const i64 *lits, i64 *order, i64 *spare)
{
    for (i64 r = 0; r < m; r++)
        order[r] = r;
    for (i64 run = 1; run < m; run *= 2) {
        for (i64 lo = 0; lo < m; lo += 2 * run) {
            i64 mid = lo + run < m ? lo + run : m;
            i64 hi = lo + 2 * run < m ? lo + 2 * run : m;
            i64 i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                if (row_order(lits + order[j] * w, lits + order[i] * w, w) < 0)
                    spare[k++] = order[j++];
                else
                    spare[k++] = order[i++];
            }
            while (i < mid)
                spare[k++] = order[i++];
            while (j < hi)
                spare[k++] = order[j++];
        }
        i64 *sorted = spare;
        spare = order;
        order = sorted;
    }
    return order;
}

/* ClauseTable.text of the m x w table ``lits``: per cell a '-' when
 * negative and the decimal digits of its magnitude (none for 0), a
 * space after each of the first (nonzero cells - 1) cells, and a '\n'
 * after each row.  With ``sorted`` the rows go in Python tuple order
 * (fingerprint's order), else as they are.  Writes to ``out``
 * (``capacity`` bytes); returns the byte count, or -1 when ``out`` is
 * too short, memory ran out or a cell is INT64_MIN (whose magnitude the
 * NumPy path cannot form). */
i64 table_text(i64 m, i64 w, const i64 *lits, i64 sorted, i64 capacity,
               uint8_t *out)
{
    uint8_t *at = out, *end = out + capacity;
    char digit[20];
    i64 *buffer = NULL, *order = NULL;
    if (sorted && m > 1) {
        if (!(buffer = malloc((size_t)(2 * m) * sizeof(i64))))
            return -1;
        order = sort_rows(m, w, lits, buffer, buffer + m);
    }
    for (i64 r = 0; r < m; r++) {
        const i64 *row = lits + (order ? order[r] : r) * w;
        i64 last = -1;
        for (i64 j = 0; j < w; j++)
            last += row[j] != 0;
        for (i64 j = 0; j < w; j++) {
            i64 v = row[j];
            uint64_t size = v < 0 ? -(uint64_t)v : (uint64_t)v;
            int count = 0;
            for (; size; size /= 10)
                digit[count++] = (char)('0' + size % 10);
            if (v == INT64_MIN || end - at < count + 3)
                goto fail;
            if (v < 0)
                *at++ = '-';
            while (count)
                *at++ = (uint8_t)digit[--count];
            if (j < last)
                *at++ = ' ';
        }
        if (at == end)
            goto fail;
        *at++ = '\n';
    }
    free(buffer);
    return at - out;
fail:
    free(buffer);
    return -1;
}

/* repro.cache.signature.CLAUSE_SIG_BYTES */
#define SIG_BYTES 16

/* Whether every 16-byte record of the blob ``a`` (``na`` bytes) is also a
 * record of ``b`` (``nb`` bytes): set(a) <= set(b) over the records, with
 * repeats allowed on either side.  Both blobs hold sorted records, as
 * pack_signatures(clause_signatures(...)) writes them, and one merge walk
 * decides.  Returns 1 or 0, and 0 when either length is not a multiple
 * of 16.  A 1 is always a true inclusion: every record of ``a`` was
 * found equal to one of ``b``, so unsorted input can only turn a 1 into
 * a 0. */
i64 sigs_subset(const uint8_t *a, i64 na, const uint8_t *b, i64 nb)
{
    if (na % SIG_BYTES || nb % SIG_BYTES)
        return 0;
    i64 j = 0;
    for (i64 i = 0; i < na; i += SIG_BYTES) {
        int order = 1;
        while (j < nb && (order = memcmp(b + j, a + i, SIG_BYTES)) < 0)
            j += SIG_BYTES;
        if (order != 0)
            return 0;
    }
    return 1;
}
