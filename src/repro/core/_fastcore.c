/* _fastcore: native hot-loop kernels for repro.core.kernel.
 *
 * Every function is a bit-for-bit twin of a Python/NumPy reference in
 * core/kernel.py (OpenList: core/astar.py; gh_step: baselines/mflow.py;
 * best_merge: qsp/reduction.py); the Python code stays the behavioral
 * reference and the property tests in tests/test_fastcore.py assert
 * identity on random packed states.  Three rules keep the float paths identical:
 *
 *   1. Compile with -ffp-contract=off: expressions like c*a0 - s*a1 must
 *      not be FMA-fused, or results drift from the NumPy evaluation.
 *   2. np.round(x, 10) is rint(x * 1e10) / 1e10 (division, not multiply
 *      by reciprocal - the reciprocal form differs on ~1 in 6 values).
 *   3. All float expressions copy the reference's operation order and
 *      association exactly.
 *
 * Integer hashing is all mod-2^64 arithmetic on uint64_t, which matches
 * the NumPy uint64 wraparound and the Python "& _U64" masking by
 * construction.  Splitmix constants come from _splitmix.h (shared with
 * repro/core/splitmix.py; repro.core.fastcore cross-checks at load).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include "_splitmix.h"

/* ------------------------------------------------------------------ */
/* splitmix64 lanes                                                    */
/* ------------------------------------------------------------------ */

static inline uint64_t
mix_a(uint64_t z)
{
    z += SM_GOLDEN;
    z = (z ^ (z >> 30)) * SM_A1;
    z = (z ^ (z >> 27)) * SM_A2;
    return z ^ (z >> 31);
}

static inline uint64_t
mix_b(uint64_t z)
{
    z += SM_GOLDEN;
    z = (z ^ (z >> 30)) * SM_B1;
    z = (z ^ (z >> 27)) * SM_B2;
    return z ^ (z >> 31);
}

static inline uint64_t
dbl_bits(double d)
{
    uint64_t u;
    memcpy(&u, &d, sizeof(u));
    return u;
}

#define SIGNBIT64 0x8000000000000000ULL

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

/* A C-contiguous view of obj (only .buf and .len are read).  A read of a
 * contiguous ndarray skips the buffer protocol (and the buffer-info
 * record NumPy would attach to the array): the view owns a reference
 * like a protocol view, and as long as ndarray has no releasebuffer
 * slot PyBuffer_Release just drops it. */
static int
get_buf(PyObject *obj, Py_buffer *view, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0);
    if (!writable && PyArray_Check(obj) &&
            PyArray_IS_C_CONTIGUOUS((PyArrayObject *)obj) &&
            Py_TYPE(obj)->tp_as_buffer != NULL &&
            Py_TYPE(obj)->tp_as_buffer->bf_releasebuffer == NULL) {
        view->buf = PyArray_DATA((PyArrayObject *)obj);
        view->len = PyArray_NBYTES((PyArrayObject *)obj);
        Py_INCREF(obj);
        view->obj = obj;
        return 0;
    }
    return PyObject_GetBuffer(obj, view, flags);
}

/* Serialized state payload: n (2 bytes LE) + idx bytes + qamp bytes. */
static PyObject *
build_payload(int n, const int64_t *idx, const double *qamp, Py_ssize_t m)
{
    PyObject *bytes = PyBytes_FromStringAndSize(NULL, 2 + 16 * m);
    char *p;
    if (bytes == NULL)
        return NULL;
    p = PyBytes_AS_STRING(bytes);
    p[0] = (char)(n & 0xff);
    p[1] = (char)((n >> 8) & 0xff);
    memcpy(p + 2, idx, (size_t)m * 8);
    memcpy(p + 2 + 8 * m, qamp, (size_t)m * 8);
    return bytes;
}

typedef struct {
    int64_t v;
    double a;
} ia_pair;

static int
cmp_ia_pair(const void *pa, const void *pb)
{
    int64_t a = ((const ia_pair *)pa)->v;
    int64_t b = ((const ia_pair *)pb)->v;
    return (a > b) - (a < b);
}

typedef struct {
    int64_t v;
    int64_t j;
} ij_pair;

static int
cmp_ij_pair(const void *pa, const void *pb)
{
    int64_t a = ((const ij_pair *)pa)->v;
    int64_t b = ((const ij_pair *)pb)->v;
    return (a > b) - (a < b);
}

/* Rows up to this length sort by insertion, longer ones by qsort.  The
 * rows sorted this way hold distinct keys, so either order is the one
 * ascending order (the dense search's rows hold 8-16 entries, the
 * sparse reduction's are wider). */
#define SHORT_SORT 32

static void
sort_ia_rows(ia_pair *a, Py_ssize_t m)
{
    Py_ssize_t i, j;
    if (m > SHORT_SORT) {
        qsort(a, (size_t)m, sizeof(ia_pair), cmp_ia_pair);
        return;
    }
    for (i = 1; i < m; i++) {
        ia_pair x = a[i];
        for (j = i; j > 0 && a[j - 1].v > x.v; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

static void
sort_ij_rows(ij_pair *a, Py_ssize_t m)
{
    Py_ssize_t i, j;
    if (m > SHORT_SORT) {
        qsort(a, (size_t)m, sizeof(ij_pair), cmp_ij_pair);
        return;
    }
    for (i = 1; i < m; i++) {
        ij_pair x = a[i];
        for (j = i; j > 0 && a[j - 1].v > x.v; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

/* ------------------------------------------------------------------ */
/* splitmix_constants() - runtime anti-drift check                     */
/* ------------------------------------------------------------------ */

static PyObject *
fc_splitmix_constants(PyObject *self, PyObject *noargs)
{
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
#define ADD_CONST(NAME, VALUE) \
    do { \
        PyObject *v = PyLong_FromUnsignedLongLong(VALUE); \
        if (v == NULL || PyDict_SetItemString(d, NAME, v) < 0) { \
            Py_XDECREF(v); \
            Py_DECREF(d); \
            return NULL; \
        } \
        Py_DECREF(v); \
    } while (0)
    ADD_CONST("GOLDEN", SM_GOLDEN);
    ADD_CONST("A1", SM_A1);
    ADD_CONST("A2", SM_A2);
    ADD_CONST("B1", SM_B1);
    ADD_CONST("B2", SM_B2);
    ADD_CONST("ORBIT_MUL", SM_ORBIT_MUL);
#undef ADD_CONST
    return d;
}

/* ------------------------------------------------------------------ */
/* quantize(src, dst, scale): np.round(x, d) with -0.0 -> 0.0          */
/* ------------------------------------------------------------------ */

static PyObject *
fc_quantize(PyObject *self, PyObject *args)
{
    PyObject *src_o, *dst_o;
    double scale;
    Py_buffer src, dst;
    Py_ssize_t i, m;
    const double *in;
    double *out;

    if (!PyArg_ParseTuple(args, "OOd", &src_o, &dst_o, &scale))
        return NULL;
    if (get_buf(src_o, &src, 0) < 0)
        return NULL;
    if (get_buf(dst_o, &dst, 1) < 0) {
        PyBuffer_Release(&src);
        return NULL;
    }
    if (dst.len != src.len) {
        PyBuffer_Release(&src);
        PyBuffer_Release(&dst);
        PyErr_SetString(PyExc_ValueError, "quantize: length mismatch");
        return NULL;
    }
    m = src.len / (Py_ssize_t)sizeof(double);
    in = (const double *)src.buf;
    out = (double *)dst.buf;
    for (i = 0; i < m; i++) {
        double q = rint(in[i] * scale) / scale;
        if (q == 0.0)
            q = 0.0;  /* normalize -0.0 */
        out[i] = q;
    }
    PyBuffer_Release(&src);
    PyBuffer_Release(&dst);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* payload(n, idx, qamp) -> bytes                                      */
/* ------------------------------------------------------------------ */

static PyObject *
fc_payload(PyObject *self, PyObject *args)
{
    int n;
    PyObject *idx_o, *qamp_o, *res;
    Py_buffer idx_b, qamp_b;

    if (!PyArg_ParseTuple(args, "iOO", &n, &idx_o, &qamp_o))
        return NULL;
    if (get_buf(idx_o, &idx_b, 0) < 0)
        return NULL;
    if (get_buf(qamp_o, &qamp_b, 0) < 0) {
        PyBuffer_Release(&idx_b);
        return NULL;
    }
    res = build_payload(n, (const int64_t *)idx_b.buf,
                        (const double *)qamp_b.buf, idx_b.len / 8);
    PyBuffer_Release(&idx_b);
    PyBuffer_Release(&qamp_b);
    return res;
}

/* ------------------------------------------------------------------ */
/* column_counts(n, idx) -> list[int]                                  */
/* ------------------------------------------------------------------ */

/* The list of per-qubit column weights of idx (also written to counts,
 * n entries, when given).  It holds ints only and is memoized on a
 * PackedState, so it is returned outside the cyclic collector. */
static void
column_counts(int n, const int64_t *idx, Py_ssize_t m, int64_t *counts)
{
    int q;
    Py_ssize_t j;
    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        int64_t ones = 0;
        for (j = 0; j < m; j++)
            ones += (idx[j] >> shift) & 1;
        counts[q] = ones;
    }
}

static PyObject *
counts_list(int n, const int64_t *idx, Py_ssize_t m, int64_t *counts)
{
    PyObject *res = PyList_New(n);
    int64_t local[64];
    int q;
    if (res == NULL)
        return NULL;
    if (counts == NULL)
        counts = local;
    column_counts(n, idx, m, counts);
    for (q = 0; q < n; q++) {
        PyObject *v = PyLong_FromLongLong(counts[q]);
        if (v == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, q, v);
    }
    PyObject_GC_UnTrack(res);
    return res;
}

static PyObject *
fc_column_counts(PyObject *self, PyObject *args)
{
    int n;
    PyObject *idx_o, *res;
    Py_buffer idx_b;

    if (!PyArg_ParseTuple(args, "iO", &n, &idx_o))
        return NULL;
    if (n < 0 || n > 62) {
        PyErr_SetString(PyExc_ValueError, "column_counts: bad width");
        return NULL;
    }
    if (get_buf(idx_o, &idx_b, 0) < 0)
        return NULL;
    res = counts_list(n, (const int64_t *)idx_b.buf, idx_b.len / 8, NULL);
    PyBuffer_Release(&idx_b);
    return res;
}

/* ------------------------------------------------------------------ */
/* cofactor proportionality (twin of kernel._ratio_balanced)           */
/* ------------------------------------------------------------------ */

/* scratch must hold 2*m int64 + 2*m double; returns 1 and sets *ratio
 * when the qubit at `shift` is balanced-separable, else 0. */
static int
ratio_balanced(const int64_t *idx, const double *amp, Py_ssize_t m,
               int shift, int64_t *scratch_i, double *scratch_a,
               double *ratio_out)
{
    int64_t bit = (int64_t)1 << shift;
    int64_t *i0 = scratch_i, *i1 = scratch_i + m;
    double *a0 = scratch_a, *a1 = scratch_a + m;
    Py_ssize_t j, c0 = 0, c1 = 0, t;
    double ref, tol, aref;

    for (j = 0; j < m; j++) {
        if (idx[j] & bit) {
            i1[c1] = idx[j] ^ bit;
            a1[c1++] = amp[j];
        }
        else {
            i0[c0] = idx[j];
            a0[c0++] = amp[j];
        }
    }
    if (c0 != c1)
        return 0;
    for (j = 0; j < c0; j++)
        if (i0[j] != i1[j])
            return 0;
    ref = a1[0] / a0[0];
    aref = fabs(ref);
    tol = 1e-8 * (aref > 1.0 ? aref : 1.0);
    for (t = 0; t < c0; t++) {
        if (fabs(a1[t] / a0[t] - ref) > tol)
            return 0;
    }
    *ratio_out = ref;
    return 1;
}

/* Writes the entangled qubits of (idx, amp) ascending into ent (n slots)
 * and returns their count (twin of kernel.entangled_qubits_packed);
 * scratch as for ratio_balanced. */
static int
entangled_core(int n, const int64_t *idx, const double *amp, Py_ssize_t m,
               int64_t *scratch_i, double *scratch_a, int *ent)
{
    int q, count = 0;
    Py_ssize_t j;
    double ratio;

    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        int64_t ones = 0;
        for (j = 0; j < m; j++)
            ones += (idx[j] >> shift) & 1;
        if (ones == 0 || ones == m)
            continue;  /* pinned at |0> / |1>: separable */
        if (2 * ones != m ||
                !ratio_balanced(idx, amp, m, shift, scratch_i, scratch_a,
                                &ratio))
            ent[count++] = q;
    }
    return count;
}

/* A tuple of ints, untracked (it can never be part of a cycle). */
static PyObject *
int_tuple(const int *vals, int count)
{
    PyObject *res = PyTuple_New(count);
    int j;
    if (res == NULL)
        return NULL;
    for (j = 0; j < count; j++) {
        PyObject *v = PyLong_FromLong(vals[j]);
        if (v == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyTuple_SET_ITEM(res, j, v);
    }
    PyObject_GC_UnTrack(res);
    return res;
}

/* entangled_qubits(n, idx, amp) -> tuple[int, ...] */
static PyObject *
fc_entangled_qubits(PyObject *self, PyObject *args)
{
    int n, count, ent[64];
    PyObject *idx_o, *amp_o, *res = NULL;
    Py_buffer idx_b, amp_b;
    Py_ssize_t m;
    int64_t *scratch_i = NULL;
    double *scratch_a = NULL;

    if (!PyArg_ParseTuple(args, "iOO", &n, &idx_o, &amp_o))
        return NULL;
    if (n < 0 || n > 64) {
        PyErr_SetString(PyExc_ValueError, "entangled_qubits: bad n");
        return NULL;
    }
    if (get_buf(idx_o, &idx_b, 0) < 0)
        return NULL;
    if (get_buf(amp_o, &amp_b, 0) < 0) {
        PyBuffer_Release(&idx_b);
        return NULL;
    }
    m = idx_b.len / 8;
    scratch_i = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(int64_t));
    scratch_a = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(double));
    if (scratch_i == NULL || scratch_a == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    count = entangled_core(n, (const int64_t *)idx_b.buf,
                           (const double *)amp_b.buf, m, scratch_i,
                           scratch_a, ent);
    res = int_tuple(ent, count);
done:
    PyMem_Free(scratch_i);
    PyMem_Free(scratch_a);
    PyBuffer_Release(&idx_b);
    PyBuffer_Release(&amp_b);
    return res;
}

/* ------------------------------------------------------------------ */
/* canonicalization helpers (twins of the CanonContext steps)          */
/* ------------------------------------------------------------------ */

/* Separable-qubit pinning, in place on idx/amp (twin of
 * kernel._pin_separable_arrays): *m_io entries in, the pinned count out.
 * counts are the input's column counts (the first sweep reads them,
 * any change makes them stale).  Scratch: 2m+1 int64 and double, m
 * pairs.  Returns 1 when anything was pinned. */
static int
pin_core(int n, int64_t *idx, double *amp, Py_ssize_t *m_io,
         const int64_t *counts, int64_t *scratch_i, double *scratch_a,
         ia_pair *pairs)
{
    int q, changed = 1, pinned = 0, have_counts = 1;
    Py_ssize_t j, m = *m_io;
    double ratio;

    while (changed) {
        changed = 0;
        for (q = 0; q < n; q++) {
            int shift = n - 1 - q;
            int64_t bit = (int64_t)1 << shift;
            int64_t ones;
            if (have_counts) {
                ones = counts[q];
            }
            else {
                ones = 0;
                for (j = 0; j < m; j++)
                    ones += (idx[j] >> shift) & 1;
            }
            if (ones == 0)
                continue;  /* already pinned at |0> */
            if (ones == m) {
                for (j = 0; j < m; j++) {
                    pairs[j].v = idx[j] ^ bit;
                    pairs[j].a = amp[j];
                }
                sort_ia_rows(pairs, m);
                for (j = 0; j < m; j++) {
                    idx[j] = pairs[j].v;
                    amp[j] = pairs[j].a;
                }
                changed = pinned = 1;
                have_counts = 0;  /* stale after any change */
                continue;
            }
            if (2 * ones != m)
                continue;  /* entangled */
            if (!ratio_balanced(idx, amp, m, shift, scratch_i, scratch_a,
                                &ratio))
                continue;  /* entangled */
            {
                double scale = sqrt(1.0 + ratio * ratio);
                Py_ssize_t keep = 0;
                for (j = 0; j < m; j++) {
                    if (!((idx[j] >> shift) & 1)) {
                        idx[keep] = idx[j];
                        amp[keep++] = amp[j] * scale;
                    }
                }
                m = keep;
            }
            changed = pinned = 1;
            have_counts = 0;
        }
    }
    *m_io = m;
    return pinned;
}

/* The orbit-hash accumulation over rows (K x m permuted index sets),
 * heavy positions and quantized amplitudes (twin of kernel._orbit_hash):
 * sets the two 64-bit lanes; returns 0, or -1 with MemoryError set. */
static int
orbit_totals(const uint64_t *rows, Py_ssize_t K, Py_ssize_t m,
             const int64_t *hp, Py_ssize_t H, const double *qamp,
             uint64_t *total_a_out, uint64_t *total_b_out)
{
    Py_ssize_t j, k, h, d, ndistinct = 0;
    uint64_t *fbp, *accs, *dist, *arena;
    Py_ssize_t *kept;
    unsigned char *neg;
    uint64_t total_a = 0, total_b = 0;

    /* one allocation: fbp[m], accs[2K], dist[2K], kept[H], neg[H] */
    arena = PyMem_Malloc((size_t)(m + 4 * K + 2 * H + 1) * sizeof(uint64_t));
    if (arena == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    fbp = arena;
    accs = fbp + m;
    dist = accs + 2 * K;
    kept = (Py_ssize_t *)(dist + 2 * K);
    neg = (unsigned char *)(kept + H);
    for (j = 0; j < m; j++)
        fbp[j] = dbl_bits(qamp[j]);
    for (h = 0; h < H; h++)
        neg[h] = qamp[hp[h]] < 0.0;

    for (k = 0; k < K; k++) {
        const uint64_t *row = rows + k * m;
        Py_ssize_t nkept;
        uint64_t acc_a = 0, acc_b = 0;
        if (m > 1) {
            /* covariant mask prefilter: keep translations minimizing the
             * second-smallest translated index (ties all kept) */
            uint64_t best_second = UINT64_MAX;
            int have_best = 0;
            nkept = 0;
            for (h = 0; h < H; h++) {
                uint64_t mask = row[hp[h]];
                uint64_t lo = UINT64_MAX, hi = UINT64_MAX;
                for (j = 0; j < m; j++) {
                    uint64_t t = row[j] ^ mask;
                    if (t < lo) {
                        hi = lo;
                        lo = t;
                    }
                    else if (t < hi) {
                        hi = t;
                    }
                }
                if (!have_best || hi < best_second) {
                    have_best = 1;
                    best_second = hi;
                    kept[0] = h;
                    nkept = 1;
                }
                else if (hi == best_second) {
                    kept[nkept++] = h;
                }
            }
        }
        else {
            nkept = H;
            for (h = 0; h < H; h++)
                kept[h] = h;
        }
        for (d = 0; d < nkept; d++) {
            uint64_t mask, fb_xor, cand_a = 0, cand_b = 0;
            h = kept[d];
            mask = row[hp[h]];
            fb_xor = neg[h] ? SIGNBIT64 : 0;
            for (j = 0; j < m; j++) {
                uint64_t z = ((row[j] ^ mask) * SM_ORBIT_MUL)
                             ^ (fbp[j] ^ fb_xor);
                uint64_t a = mix_a(z);
                cand_a += a;
                cand_b += mix_b(a);
            }
            /* finalize per candidate so sums do not telescope across the
             * candidate grouping */
            acc_a += mix_a(cand_a);
            acc_b += mix_b(cand_b);
        }
        accs[2 * k] = acc_a;
        accs[2 * k + 1] = acc_b;
    }
    /* distinct (acc_a, acc_b) pairs across orderings */
    for (k = 0; k < K; k++) {
        int fresh = 1;
        for (d = 0; d < ndistinct; d++) {
            if (dist[2 * d] == accs[2 * k] &&
                    dist[2 * d + 1] == accs[2 * k + 1]) {
                fresh = 0;
                break;
            }
        }
        if (fresh) {
            dist[2 * ndistinct] = accs[2 * k];
            dist[2 * ndistinct + 1] = accs[2 * k + 1];
            ndistinct++;
        }
    }
    for (d = 0; d < ndistinct; d++) {
        /* finalize per ordering for the same reason, one level up */
        total_a += mix_a(dist[2 * d]);
        total_b += mix_b(dist[2 * d + 1]);
    }
    *total_a_out = total_a;
    *total_b_out = total_b;
    PyMem_Free(arena);
    return 0;
}

/* (a << 64) | b as a new Python int. */
static PyObject *
u128_long(uint64_t a, uint64_t b)
{
    PyObject *pa = PyLong_FromUnsignedLongLong(a);
    PyObject *pb = PyLong_FromUnsignedLongLong(b);
    PyObject *sh = PyLong_FromLong(64);
    PyObject *shifted = NULL, *res = NULL;
    if (pa != NULL && pb != NULL && sh != NULL)
        shifted = PyNumber_Lshift(pa, sh);
    if (shifted != NULL)
        res = PyNumber_Or(shifted, pb);
    Py_XDECREF(pa);
    Py_XDECREF(pb);
    Py_XDECREF(sh);
    Py_XDECREF(shifted);
    return res;
}

/* Heavy positions: the ascending indices of max |qamp|, at most cap of
 * them (exact float comparisons, so identical to the NumPy
 * flatnonzero(absamp == absamp.max())[:cap] selection). */
static Py_ssize_t
heavy_positions(const double *qamp, Py_ssize_t m, Py_ssize_t cap,
                int64_t *hp)
{
    Py_ssize_t j, H = 0;
    double absmax = 0.0;
    for (j = 0; j < m; j++) {
        double a = fabs(qamp[j]);
        if (a > absmax)
            absmax = a;
    }
    for (j = 0; j < m && H < cap; j++)
        if (fabs(qamp[j]) == absmax)
            hp[H++] = (int64_t)j;
    return H;
}

/* out[j] = the index of element j under the qubit ordering perm: bit
 * (n-1-i) of out[j] is bit (n-1-perm[i]) of idx[j] (pure integer bit
 * scatter, matching the einsum over the bit matrix). */
static void
permute_row(const int64_t *idx, Py_ssize_t m, int n, const int *perm,
            uint64_t *out)
{
    Py_ssize_t j;
    int i;
    for (j = 0; j < m; j++) {
        uint64_t v = 0;
        uint64_t x = (uint64_t)idx[j];
        for (i = 0; i < n; i++)
            v |= ((x >> (n - 1 - perm[i])) & 1) << (uint64_t)(n - 1 - i);
        out[j] = v;
    }
}

/* Exact invariance of the state under every adjacent transposition of
 * the cell (twin of kernel._cell_symmetric_arrays); pairs: m scratch. */
static int
cell_symmetric_core(int n, const int64_t *idx, const double *qamp,
                    Py_ssize_t m, const int *cell, int ncell,
                    ij_pair *pairs)
{
    int c;
    Py_ssize_t j;
    for (c = 0; c + 1 < ncell; c++) {
        int sa = n - 1 - cell[c];
        int sb = n - 1 - cell[c + 1];
        int64_t both = ((int64_t)1 << sa) | ((int64_t)1 << sb);
        for (j = 0; j < m; j++) {
            int64_t diff = ((idx[j] >> sa) ^ (idx[j] >> sb)) & 1;
            pairs[j].v = idx[j] ^ (diff * both);
            pairs[j].j = j;
        }
        sort_ij_rows(pairs, m);
        for (j = 0; j < m; j++) {
            if (pairs[j].v != idx[j] || qamp[pairs[j].j] != qamp[j])
                return 0;
        }
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* wl_pair_ids(n, idx, ranks) -> list[list[int]]                       */
/* ------------------------------------------------------------------ */

static PyObject *
fc_wl_pair_ids(PyObject *self, PyObject *args)
{
    int n, q, p, w, flip;
    PyObject *idx_o, *ranks_o, *res = NULL;
    Py_buffer idx_b, ranks_b;
    Py_ssize_t j, m;
    const int64_t *idx, *ranks;
    int64_t maxrank = 0, width;
    int64_t *table = NULL, *bestbuf = NULL;
    unsigned char *bits = NULL;

    if (!PyArg_ParseTuple(args, "iOO", &n, &idx_o, &ranks_o))
        return NULL;
    if (get_buf(idx_o, &idx_b, 0) < 0)
        return NULL;
    if (get_buf(ranks_o, &ranks_b, 0) < 0) {
        PyBuffer_Release(&idx_b);
        return NULL;
    }
    m = idx_b.len / 8;
    idx = (const int64_t *)idx_b.buf;
    ranks = (const int64_t *)ranks_b.buf;
    for (j = 0; j < m; j++)
        if (ranks[j] > maxrank)
            maxrank = ranks[j];
    width = 4 * (maxrank + 1);

    bits = PyMem_Malloc((size_t)(n * m + 1));
    table = PyMem_Calloc((size_t)(n * n * width + 1), sizeof(int64_t));
    bestbuf = PyMem_Malloc((size_t)(width + 1) * sizeof(int64_t));
    if (bits == NULL || table == NULL || bestbuf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        for (j = 0; j < m; j++)
            bits[q * m + j] = (unsigned char)((idx[j] >> shift) & 1);
    }
    /* count table over (|amp| rank, bit_q, bit_p) per ordered pair */
    for (q = 0; q < n; q++) {
        for (p = 0; p < n; p++) {
            int64_t *row = table + ((Py_ssize_t)q * n + p) * width;
            for (j = 0; j < m; j++)
                row[ranks[j] * 4 + bits[q * m + j] * 2 + bits[p * m + j]]++;
        }
    }
    res = PyList_New(n);
    if (res == NULL)
        goto done;
    for (q = 0; q < n; q++) {
        PyObject *inner = PyList_New(n);
        if (inner == NULL) {
            Py_CLEAR(res);
            goto done;
        }
        PyList_SET_ITEM(res, q, inner);
        for (p = 0; p < n; p++) {
            const int64_t *row = table + ((Py_ssize_t)q * n + p) * width;
            PyObject *hv;
            uint64_t fold;
            memcpy(bestbuf, row, (size_t)width * sizeof(int64_t));
            /* minimize over the four flip variants (column xor) */
            for (flip = 1; flip < 4; flip++) {
                int less = 0;
                for (w = 0; w < width; w++) {
                    int64_t v = row[w ^ flip];
                    if (v < bestbuf[w]) {
                        less = 1;
                        break;
                    }
                    if (v > bestbuf[w])
                        break;
                }
                if (less) {
                    for (w = 0; w < width; w++)
                        bestbuf[w] = row[w ^ flip];
                }
            }
            /* the row's id: its counts folded by splitmix64, so it
             * does not depend on the interpreter's hash seed */
            fold = 0;
            for (w = 0; w < width; w++)
                fold = mix_a(fold ^ (uint64_t)bestbuf[w]);
            hv = PyLong_FromUnsignedLongLong(fold);
            if (hv == NULL) {
                Py_CLEAR(res);
                goto done;
            }
            PyList_SET_ITEM(inner, p, hv);
        }
    }
done:
    PyMem_Free(bits);
    PyMem_Free(table);
    PyMem_Free(bestbuf);
    PyBuffer_Release(&idx_b);
    PyBuffer_Release(&ranks_b);
    return res;
}


/* ------------------------------------------------------------------ */
/* merge enumeration and application: shared helpers                   */
/* ------------------------------------------------------------------ */

/* Split the sorted index set by the pairing on target bit `tmask` (twin
 * of kernel._pairs_and_singles_packed).  Pairs come out in ascending i0
 * (a0 = the |0> member's amplitude, a1 its partner's); singles are the
 * indices without a partner, in index order.  Each output holds up to m
 * entries.  Returns the pair count and sets *num_singles. */
static Py_ssize_t
split_pairs(const int64_t *idx, const double *amp, Py_ssize_t m,
            int64_t tmask, int64_t *i0, double *a0, double *a1,
            int64_t *singles, Py_ssize_t *num_singles)
{
    Py_ssize_t j, P = 0, S = 0;
    for (j = 0; j < m; j++) {
        int64_t partner = idx[j] ^ tmask;
        /* binary search for the partner in the sorted index set */
        Py_ssize_t lo = 0, hi = m;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) / 2;
            if (idx[mid] < partner)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (!(lo < m && idx[lo] == partner)) {
            singles[S++] = idx[j];
        }
        else if (!(idx[j] & tmask)) {
            i0[P] = idx[j];
            a0[P] = amp[j];
            a1[P++] = amp[lo];
        }
    }
    *num_singles = S;
    return P;
}

/* Pattern-lattice pruning (twin of kernel._merge_representatives): scan
 * `other` in order and keep one qubit per distinct non-constant bit
 * column over pairs + singles, complement-normalized; then build each
 * pair's and single's rep-bit code (bit r <-> reps[r]).  `cols` holds
 * O * (P + S) bytes.  Returns the number of representatives. */
static int
rep_codes(int n, const int64_t *i0, Py_ssize_t P, const int64_t *singles,
          Py_ssize_t S, const int64_t *other, Py_ssize_t O,
          unsigned char *cols, int64_t *reps, int64_t *pcodes,
          int64_t *scodes)
{
    Py_ssize_t total = P + S, oi, j;
    int r, nreps = 0;
    for (oi = 0; oi < O; oi++) {
        int shift = n - 1 - (int)other[oi];
        unsigned char *col = cols + (size_t)nreps * (size_t)total;
        unsigned char any = 0;
        int dup = 0;
        for (j = 0; j < total; j++) {
            int64_t v = j < P ? i0[j] : singles[j - P];
            col[j] = (unsigned char)((v >> shift) & 1);
        }
        if (total && col[0]) {  /* complement-normalize: first bit 0 */
            for (j = 0; j < total; j++)
                col[j] ^= 1;
        }
        for (j = 0; j < total; j++)
            any |= col[j];
        if (!any)
            continue;  /* constant column: never splits anything */
        for (r = 0; r < nreps; r++) {
            if (memcmp(cols + (size_t)r * (size_t)total, col,
                       (size_t)total) == 0) {
                dup = 1;
                break;
            }
        }
        if (dup)
            continue;  /* duplicate/complement column of an earlier qubit */
        reps[nreps++] = other[oi];
        if (nreps >= 64)
            break;  /* codes are 64-bit; n <= 62 keeps this unreachable */
    }
    for (j = 0; j < P; j++) {
        int64_t code = 0;
        for (r = 0; r < nreps; r++)
            code |= ((i0[j] >> (n - 1 - reps[r])) & 1) << r;
        pcodes[j] = code;
    }
    for (j = 0; j < S; j++) {
        int64_t code = 0;
        for (r = 0; r < nreps; r++)
            code |= ((singles[j] >> (n - 1 - reps[r])) & 1) << r;
        scodes[j] = code;
    }
    return nreps;
}

/* growable open-addressing set of (members..., direction) dedupe keys */
typedef struct {
    uint64_t *hashes;    /* table of key hashes; 0 = empty slot */
    Py_ssize_t *offsets; /* parallel: arena offset of the stored key */
    size_t mask, used;
    int64_t *arena;      /* concatenated keys: len, dir, members... */
    size_t arena_used, arena_cap;
} dedupe_set;

static uint64_t
dedupe_hash(const int64_t *members, Py_ssize_t count, int direction)
{
    uint64_t h = 1469598103934665603ULL;
    Py_ssize_t i;
    h ^= (uint64_t)direction;
    h *= 1099511628211ULL;
    for (i = 0; i < count; i++) {
        h ^= (uint64_t)members[i];
        h *= 1099511628211ULL;
    }
    return h ? h : 1;  /* 0 marks an empty slot */
}

static int
dedupe_grow(dedupe_set *ds)
{
    size_t newmask = ds->mask * 2 + 1, i;
    uint64_t *nh = PyMem_Calloc(newmask + 1, sizeof(uint64_t));
    Py_ssize_t *no = PyMem_Malloc((newmask + 1) * sizeof(Py_ssize_t));
    if (nh == NULL || no == NULL) {
        PyMem_Free(nh);
        PyMem_Free(no);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i <= ds->mask; i++) {
        if (ds->hashes[i]) {
            size_t slot = (size_t)ds->hashes[i] & newmask;
            while (nh[slot])
                slot = (slot + 1) & newmask;
            nh[slot] = ds->hashes[i];
            no[slot] = ds->offsets[i];
        }
    }
    PyMem_Free(ds->hashes);
    PyMem_Free(ds->offsets);
    ds->hashes = nh;
    ds->offsets = no;
    ds->mask = newmask;
    return 0;
}

/* returns 1 if (members, direction) was already present, 0 if inserted,
 * -1 on allocation failure */
static int
dedupe_check_add(dedupe_set *ds, const int64_t *members, Py_ssize_t count,
                 int direction)
{
    uint64_t h = dedupe_hash(members, count, direction);
    size_t slot = (size_t)h & ds->mask;
    while (ds->hashes[slot]) {
        if (ds->hashes[slot] == h) {
            const int64_t *key = ds->arena + ds->offsets[slot];
            if (key[0] == count && key[1] == direction &&
                    memcmp(key + 2, members,
                           (size_t)count * sizeof(int64_t)) == 0)
                return 1;
        }
        slot = (slot + 1) & ds->mask;
    }
    /* insert */
    if ((ds->arena_used + (size_t)count + 2) > ds->arena_cap) {
        size_t newcap = ds->arena_cap * 2;
        int64_t *na;
        while (newcap < ds->arena_used + (size_t)count + 2)
            newcap *= 2;
        na = PyMem_Realloc(ds->arena, newcap * sizeof(int64_t));
        if (na == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ds->arena = na;
        ds->arena_cap = newcap;
    }
    ds->arena[ds->arena_used] = count;
    ds->arena[ds->arena_used + 1] = direction;
    memcpy(ds->arena + ds->arena_used + 2, members,
           (size_t)count * sizeof(int64_t));
    ds->hashes[slot] = h;
    ds->offsets[slot] = (Py_ssize_t)ds->arena_used;
    ds->arena_used += (size_t)count + 2;
    ds->used++;
    if (ds->used * 2 > ds->mask)
        return dedupe_grow(ds);
    return 0;
}

/* one emitted merge of the lattice walk */
typedef struct {
    int64_t smask;       /* chosen representatives (bit r <-> reps[r]) */
    Py_ssize_t ref;      /* reference pair: the first of its bucket */
    int direction;
} walk_hit;

typedef struct {
    walk_hit *hits;
    Py_ssize_t count, cap;
} walk_list;

static int
walk_push(walk_list *wl, int64_t smask, Py_ssize_t ref, int direction)
{
    if (wl->count == wl->cap) {
        Py_ssize_t cap = wl->cap ? wl->cap * 2 : 32;
        walk_hit *grown = PyMem_Realloc(wl->hits,
                                        (size_t)cap * sizeof(walk_hit));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        wl->hits = grown;
        wl->cap = cap;
    }
    wl->hits[wl->count].smask = smask;
    wl->hits[wl->count].ref = ref;
    wl->hits[wl->count++].direction = direction;
    return 0;
}

/* The control-cube lattice walk of enumerate_merges_packed: for k = 0..kmax
 * and every k-subset of the representatives in lexicographic order, bucket
 * the pairs by masked code, skip buckets that would split a single or whose
 * amplitude ratios disagree, and emit each (members, direction) the first
 * time it is reached.  Appends the (smask, ref, direction) of every emitted
 * merge to `out`, in the reference's order.  Returns 0, or -1 with an
 * exception set. */
static int
merge_walk_core(const int64_t *pcl, Py_ssize_t P, const int64_t *scl,
                Py_ssize_t S, const double *a0, const double *a1,
                int num_reps, int kmax, double rtol, walk_list *out)
{
    Py_ssize_t p, s, b, i;
    /* per-subset bucket state */
    Py_ssize_t *bucket_head = NULL, *bucket_tail = NULL, *nxt = NULL;
    int64_t *bucket_code = NULL, *members = NULL;
    /* code -> bucket-id open map with generation stamps */
    size_t cmask = 0;
    int64_t *ck = NULL, *cgen = NULL;
    Py_ssize_t *cv = NULL;
    /* masked single-code set with generation stamps */
    size_t smask_cap = 0;
    int64_t *sk = NULL, *sgen = NULL;
    int64_t gen = 0;
    int combo[64];
    int k, rc = -1;
    dedupe_set ds = {NULL, NULL, 0, 0, NULL, 0, 0};

    bucket_head = PyMem_Malloc((size_t)(P + 1) * sizeof(Py_ssize_t));
    bucket_tail = PyMem_Malloc((size_t)(P + 1) * sizeof(Py_ssize_t));
    nxt = PyMem_Malloc((size_t)(P + 1) * sizeof(Py_ssize_t));
    bucket_code = PyMem_Malloc((size_t)(P + 1) * sizeof(int64_t));
    members = PyMem_Malloc((size_t)(P + 1) * sizeof(int64_t));
    cmask = 8;
    while (cmask < (size_t)P * 2 + 2)
        cmask *= 2;
    cmask -= 1;
    ck = PyMem_Malloc((cmask + 1) * sizeof(int64_t));
    cgen = PyMem_Calloc(cmask + 1, sizeof(int64_t));
    cv = PyMem_Malloc((cmask + 1) * sizeof(Py_ssize_t));
    smask_cap = 8;
    while (smask_cap < (size_t)S * 2 + 2)
        smask_cap *= 2;
    smask_cap -= 1;
    sk = PyMem_Malloc((smask_cap + 1) * sizeof(int64_t));
    sgen = PyMem_Calloc(smask_cap + 1, sizeof(int64_t));
    ds.mask = 255;
    ds.hashes = PyMem_Calloc(ds.mask + 1, sizeof(uint64_t));
    ds.offsets = PyMem_Malloc((ds.mask + 1) * sizeof(Py_ssize_t));
    ds.arena_cap = 1024;
    ds.arena = PyMem_Malloc(ds.arena_cap * sizeof(int64_t));
    if (bucket_head == NULL || bucket_tail == NULL || nxt == NULL ||
            bucket_code == NULL || members == NULL || ck == NULL ||
            cgen == NULL || cv == NULL || sk == NULL || sgen == NULL ||
            ds.hashes == NULL || ds.offsets == NULL || ds.arena == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    for (k = 0; k <= kmax; k++) {
        int have_combo = 1;
        for (i = 0; i < k; i++)
            combo[i] = (int)i;
        while (have_combo) {
            int64_t smask = 0;
            Py_ssize_t nbuckets = 0;
            for (i = 0; i < k; i++)
                smask |= (int64_t)1 << combo[i];
            gen++;
            /* bucket pairs by masked rep-code, first-occurrence order */
            for (p = 0; p < P; p++) {
                int64_t code = pcl[p] & smask;
                size_t slot = ((uint64_t)code * SM_ORBIT_MUL) & cmask;
                Py_ssize_t bid = -1;
                while (cgen[slot] == gen) {
                    if (ck[slot] == code) {
                        bid = cv[slot];
                        break;
                    }
                    slot = (slot + 1) & cmask;
                }
                if (bid < 0) {
                    bid = nbuckets++;
                    cgen[slot] = gen;
                    ck[slot] = code;
                    cv[slot] = bid;
                    bucket_code[bid] = code;
                    bucket_head[bid] = p;
                    bucket_tail[bid] = p;
                    nxt[p] = -1;
                }
                else {
                    nxt[bucket_tail[bid]] = p;
                    bucket_tail[bid] = p;
                    nxt[p] = -1;
                }
            }
            /* masked single codes */
            for (s = 0; s < S; s++) {
                int64_t code = scl[s] & smask;
                size_t slot = ((uint64_t)code * SM_ORBIT_MUL) & smask_cap;
                while (sgen[slot] == gen && sk[slot] != code)
                    slot = (slot + 1) & smask_cap;
                sgen[slot] = gen;
                sk[slot] = code;
            }
            for (b = 0; b < nbuckets; b++) {
                int64_t code = bucket_code[b];
                Py_ssize_t ref, nmem = 0;
                double ra0, ra1;
                int direction, in_singles = 0;
                size_t slot = ((uint64_t)code * SM_ORBIT_MUL) & smask_cap;
                while (sgen[slot] == gen) {
                    if (sk[slot] == code) {
                        in_singles = 1;
                        break;
                    }
                    slot = (slot + 1) & smask_cap;
                }
                if (in_singles)
                    continue;  /* the cube would split a lone index */
                for (p = bucket_head[b]; p >= 0; p = nxt[p])
                    members[nmem++] = p;
                ref = members[0];
                ra0 = a0[ref];
                ra1 = a1[ref];
                if (nmem > 1) {
                    double scale = fabs(ra0) + fabs(ra1);
                    int consistent = 1;
                    for (i = 1; i < nmem; i++) {
                        double pa0 = a0[members[i]];
                        double pa1 = a1[members[i]];
                        if (fabs(pa1 * ra0 - ra1 * pa0) >
                                (rtol * scale) * (fabs(pa0) + fabs(pa1))) {
                            consistent = 0;
                            break;
                        }
                    }
                    if (!consistent)
                        continue;
                }
                for (direction = 0; direction < 2; direction++) {
                    int dup = dedupe_check_add(&ds, members, nmem,
                                               direction);
                    if (dup < 0)
                        goto done;
                    if (dup)
                        continue;  /* cheaper cube already found */
                    if (walk_push(out, smask, ref, direction) < 0)
                        goto done;
                }
            }
            /* advance to next combination (lexicographic) */
            if (k == 0) {
                have_combo = 0;
            }
            else {
                for (i = k - 1; i >= 0; i--) {
                    if (combo[i] != (int)i + num_reps - k)
                        break;
                }
                if (i < 0) {
                    have_combo = 0;
                }
                else {
                    combo[i]++;
                    for (i++; i < k; i++)
                        combo[i] = combo[i - 1] + 1;
                }
            }
        }
    }
    rc = 0;
done:
    PyMem_Free(bucket_head);
    PyMem_Free(bucket_tail);
    PyMem_Free(nxt);
    PyMem_Free(bucket_code);
    PyMem_Free(members);
    PyMem_Free(ck);
    PyMem_Free(cgen);
    PyMem_Free(cv);
    PyMem_Free(sk);
    PyMem_Free(sgen);
    PyMem_Free(ds.hashes);
    PyMem_Free(ds.offsets);
    PyMem_Free(ds.arena);
    return rc;
}

/* scratch of merge_apply_core, sized for an m-entry state */
typedef struct {
    int64_t *g0i, *g1i;
    double *g0a, *g1a;
    unsigned char *matched;
    ia_pair *out;        /* 2m result slots */
} apply_scratch;

static int
apply_scratch_alloc(apply_scratch *sc, Py_ssize_t m)
{
    sc->g0i = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    sc->g1i = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    sc->g0a = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    sc->g1a = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    sc->matched = PyMem_Malloc((size_t)(m + 1));
    sc->out = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(ia_pair));
    if (sc->g0i == NULL || sc->g1i == NULL || sc->g0a == NULL ||
            sc->g1a == NULL || sc->matched == NULL || sc->out == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
apply_scratch_free(apply_scratch *sc)
{
    PyMem_Free(sc->g0i);
    PyMem_Free(sc->g1i);
    PyMem_Free(sc->g0a);
    PyMem_Free(sc->g1a);
    PyMem_Free(sc->matched);
    PyMem_Free(sc->out);
}

/* (Multi-)controlled Ry on target bit `tmask` over the cube
 * (idx & cmask) == cval (twin of kernel._merge_arrays).  Writes the result
 * to sc->out, sorted by index when `sort_out` is set, and returns its
 * length. */
static Py_ssize_t
merge_apply_core(const int64_t *idx, const double *amp, Py_ssize_t m,
                 int64_t cmask, int64_t cval, int64_t tmask, double theta,
                 double atol, apply_scratch *sc, int sort_out)
{
    Py_ssize_t j, n0 = 0, n1 = 0, count = 0, p1 = 0, t;
    int64_t *g0i = sc->g0i, *g1i = sc->g1i;
    double *g0a = sc->g0a, *g1a = sc->g1a;
    unsigned char *matched = sc->matched;
    ia_pair *out = sc->out;
    double c, s;

    for (j = 0; j < m; j++) {
        int64_t i = idx[j];
        if ((i & cmask) != cval) {
            out[count].v = i;
            out[count++].a = amp[j];
        }
        else if (i & tmask) {
            g1i[n1] = i ^ tmask;
            g1a[n1++] = amp[j];
        }
        else {
            g0i[n0] = i;
            g0a[n0++] = amp[j];
        }
    }
    memset(matched, 0, (size_t)n1);
    c = cos(theta / 2.0);
    s = sin(theta / 2.0);
    /* g0i and g1i are each ascending (masking preserves sort order), so
     * partners resolve by a single merge-join */
    for (j = 0; j < n0; j++) {
        int64_t i = g0i[j];
        double a0v = g0a[j], a1v = 0.0, new0, new1;
        while (p1 < n1 && g1i[p1] < i)
            p1++;
        if (p1 < n1 && g1i[p1] == i) {
            a1v = g1a[p1];
            matched[p1] = 1;
            p1++;
        }
        new0 = c * a0v - s * a1v;
        new1 = s * a0v + c * a1v;
        if (fabs(new0) > atol) {
            out[count].v = i;
            out[count++].a = new0;
        }
        if (fabs(new1) > atol) {
            out[count].v = i | tmask;
            out[count++].a = new1;
        }
    }
    for (t = 0; t < n1; t++) {  /* lone |1> partners */
        int64_t i;
        double a1v, new0, new1;
        if (matched[t])
            continue;
        i = g1i[t];
        a1v = g1a[t];
        new0 = c * 0.0 - s * a1v;
        new1 = s * 0.0 + c * a1v;
        if (fabs(new0) > atol) {
            out[count].v = i;
            out[count++].a = new0;
        }
        if (fabs(new1) > atol) {
            out[count].v = i | tmask;
            out[count++].a = new1;
        }
    }
    if (sort_out)
        sort_ia_rows(out, count);
    return count;
}

/* math.atan2, special values included (Modules/mathmodule.c m_atan2) */
static double
py_atan2(double y, double x)
{
    if (isnan(x) || isnan(y))
        return Py_NAN;
    if (isinf(y)) {
        if (isinf(x)) {
            if (copysign(1., x) == 1.)
                return copysign(0.25 * Py_MATH_PI, y);
            return copysign(0.75 * Py_MATH_PI, y);
        }
        return copysign(0.5 * Py_MATH_PI, y);
    }
    if (isinf(x) || y == 0.) {
        if (copysign(1., x) == 1.)
            return copysign(0., y);
        return copysign(Py_MATH_PI, y);
    }
    return atan2(y, x);
}

/* twin of moves.merge_angle */
static double
merge_angle(double a0, double a1, int direction)
{
    if (direction == 0)
        return -2.0 * py_atan2(a1, a0);
    return 2.0 * py_atan2(a0, a1);
}

/* ------------------------------------------------------------------ */
/* kernel objects built natively                                       */
/* ------------------------------------------------------------------ */

/* The expansion and A*'s open list build kernel.PackedState and
 * moves.MergeMove objects themselves and intern them into a
 * kernel.StatePool; canon_key and the open list's class tier build
 * kernel.CanonKey objects.  bind_kernel(PackedState, MergeMove,
 * CanonKey, StatePool, CanonContext, HashStore, BoundedCache,
 * HashKeyedMap, _PayloadKey, refine) records the classes, the __slots__
 * offsets the native code reads and writes, and canon_key's refinement
 * callback; kernel.py calls it once at import.
 *
 * Objects built here leave CPython's cyclic collector
 * (PyObject_GC_UnTrack): none of them can be part of a reference cycle.
 * A PackedState's slots hold ints, bytes, numeric ndarrays (never
 * GC-tracked), a list of ints and a tuple of ints; a MergeMove holds an
 * int, a float and a tuple of (int, int) tuples.  An untracked object is
 * still freed by reference counting; the collector merely stops
 * re-traversing it on every full collection. */

enum { PS_N, PS_IDX, PS_AMP, PS_QAMP, PS_PAYLOAD, PS_HASH64, PS_BITS,
       PS_COUNTS, PS_ENTANGLED, PS_NSLOTS };
static const char *const ps_slot_names[PS_NSLOTS] = {
    "n", "idx", "amp", "qamp", "payload", "hash64", "_bits", "_counts",
    "_entangled"};
static PyTypeObject *ps_type = NULL;
static Py_ssize_t ps_off[PS_NSLOTS];
static PyTypeObject *mm_type = NULL;
static PyObject *str_target = NULL, *str_theta = NULL, *str_controls = NULL;
static PyObject *empty_tuple = NULL;

#define PS_SLOT(obj, i) (*(PyObject **)((char *)(obj) + ps_off[i]))

enum { CK_N, CK_H, CK_FULL, CK_NSLOTS };
static const char *const ck_slot_names[CK_NSLOTS] = {"n", "h", "full"};
static PyTypeObject *ck_type = NULL;
static Py_ssize_t ck_off[CK_NSLOTS];

#define CK_SLOT(obj, i) (*(PyObject **)((char *)(obj) + ck_off[i]))

/* the pool's table and its counters (interning outside an expansion
 * call updates them in place) */
enum { SP_TABLE, SP_INTERNED, SP_HITS, SP_COLLISIONS, SP_NSLOTS };
static const char *const sp_slot_names[SP_NSLOTS] = {
    "_table", "interned", "hits", "hash_collisions"};
static PyTypeObject *sp_type = NULL;
static Py_ssize_t sp_off[SP_NSLOTS];

#define SP_SLOT(obj, i) (*(PyObject **)((char *)(obj) + sp_off[i]))

/* A*'s class tier reads and updates a CanonContext, its memo (a
 * HashStore), its U(2)-class tier (a BoundedCache) and best_g (a
 * HashKeyedMap) in place, and hands the memo a _PayloadKey(hash64,
 * payload) where it calls the memo's own get / put. */
enum { CC_MEMO, CC_HITS, CC_MISSES, CC_U2, CC_FULL, CC_TIMERS, CC_NSLOTS };
static const char *const cc_slot_names[CC_NSLOTS] = {
    "memo", "hits", "misses", "u2_cache", "full_computations", "timers"};
enum { HS_CAP, HS_PRIMARY, HS_HITS, HS_MISSES, HS_NSLOTS };
static const char *const hs_slot_names[HS_NSLOTS] = {
    "cap", "_primary", "hits", "misses"};
enum { BC_CAP, BC_DATA, BC_HITS, BC_MISSES, BC_NSLOTS };
static const char *const bc_slot_names[BC_NSLOTS] = {
    "cap", "data", "hits", "misses"};
enum { HK_PRIMARY, HK_NSLOTS };
static const char *const hk_slot_names[HK_NSLOTS] = {"_primary"};
static PyTypeObject *cc_type = NULL, *hs_type = NULL, *bc_type = NULL;
static PyTypeObject *hk_type = NULL, *pk_type = NULL;
static Py_ssize_t cc_off[CC_NSLOTS], hs_off[HS_NSLOTS], bc_off[BC_NSLOTS];
static Py_ssize_t hk_off[HK_NSLOTS];
static PyObject *str_get = NULL, *str_put = NULL, *str_data = NULL;
static PyObject *str_exhausted = NULL;

#define OBJ_SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* kernel._refine_tags(n, idx, absamp, sig_tags): the Python refinement
 * of oversized ties, called back by canon_key */
static PyObject *refine_fn = NULL;

/* The __slots__ offsets of a kernel class, by member name. */
static int
slot_offsets(PyObject *cls, const char *const *names, int count,
             Py_ssize_t *off)
{
    int i;
    for (i = 0; i < count; i++) {
        PyObject *d = PyObject_GetAttrString(cls, names[i]);
        if (d == NULL)
            return -1;
        if (!Py_IS_TYPE(d, &PyMemberDescr_Type)) {
            Py_DECREF(d);
            PyErr_Format(PyExc_TypeError,
                         "bind_kernel: '%s' is not a __slots__ member",
                         names[i]);
            return -1;
        }
        off[i] = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_DECREF(d);
    }
    return 0;
}

static PyObject *
fc_bind_kernel(PyObject *self, PyObject *args)
{
    PyObject *t[9], *refine;
    PyTypeObject **types[9] = {&ps_type, &mm_type, &ck_type, &sp_type,
                               &cc_type, &hs_type, &bc_type, &hk_type,
                               &pk_type};
    Py_ssize_t off[PS_NSLOTS], coff[CK_NSLOTS], soff[SP_NSLOTS];
    Py_ssize_t ccoff[CC_NSLOTS], hsoff[HS_NSLOTS], bcoff[BC_NSLOTS];
    Py_ssize_t hkoff[HK_NSLOTS];
    int i;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!O!O", &PyType_Type, &t[0],
                          &PyType_Type, &t[1], &PyType_Type, &t[2],
                          &PyType_Type, &t[3], &PyType_Type, &t[4],
                          &PyType_Type, &t[5], &PyType_Type, &t[6],
                          &PyType_Type, &t[7], &PyType_Type, &t[8], &refine))
        return NULL;
    if (!PyCallable_Check(refine)) {
        PyErr_SetString(PyExc_TypeError, "bind_kernel: refine not callable");
        return NULL;
    }
    if (slot_offsets(t[0], ps_slot_names, PS_NSLOTS, off) < 0 ||
            slot_offsets(t[2], ck_slot_names, CK_NSLOTS, coff) < 0 ||
            slot_offsets(t[3], sp_slot_names, SP_NSLOTS, soff) < 0 ||
            slot_offsets(t[4], cc_slot_names, CC_NSLOTS, ccoff) < 0 ||
            slot_offsets(t[5], hs_slot_names, HS_NSLOTS, hsoff) < 0 ||
            slot_offsets(t[6], bc_slot_names, BC_NSLOTS, bcoff) < 0 ||
            slot_offsets(t[7], hk_slot_names, HK_NSLOTS, hkoff) < 0)
        return NULL;
    memcpy(ps_off, off, sizeof(off));
    memcpy(ck_off, coff, sizeof(coff));
    memcpy(sp_off, soff, sizeof(soff));
    memcpy(cc_off, ccoff, sizeof(ccoff));
    memcpy(hs_off, hsoff, sizeof(hsoff));
    memcpy(bc_off, bcoff, sizeof(bcoff));
    memcpy(hk_off, hkoff, sizeof(hkoff));
    for (i = 0; i < 9; i++) {
        Py_INCREF(t[i]);
        Py_XSETREF(*types[i], (PyTypeObject *)t[i]);
    }
    Py_INCREF(refine);
    Py_XSETREF(refine_fn, refine);
    Py_RETURN_NONE;
}

static PyObject *
new_array(const void *src, Py_ssize_t m, int typenum)
{
    npy_intp dims[1];
    PyObject *arr;
    dims[0] = (npy_intp)m;
    arr = PyArray_SimpleNew(1, dims, typenum);
    if (arr != NULL && m > 0)
        memcpy(PyArray_DATA((PyArrayObject *)arr), src, (size_t)m * 8);
    return arr;
}

/* A new PackedState, as PackedState.__init__ builds it, untracked. */
static PyObject *
new_packed(PyObject *nobj, const int64_t *idx, const double *amp,
           const double *qamp, Py_ssize_t m, PyObject *payload,
           PyObject *hkey)
{
    PyObject *obj = ps_type->tp_alloc(ps_type, 0);
    int i;
    if (obj == NULL)
        return NULL;
    PS_SLOT(obj, PS_IDX) = new_array(idx, m, NPY_INT64);
    PS_SLOT(obj, PS_AMP) = new_array(amp, m, NPY_FLOAT64);
    PS_SLOT(obj, PS_QAMP) = new_array(qamp, m, NPY_FLOAT64);
    if (PS_SLOT(obj, PS_IDX) == NULL || PS_SLOT(obj, PS_AMP) == NULL ||
            PS_SLOT(obj, PS_QAMP) == NULL) {
        Py_DECREF(obj);
        return NULL;
    }
    Py_INCREF(nobj);
    PS_SLOT(obj, PS_N) = nobj;
    Py_INCREF(payload);
    PS_SLOT(obj, PS_PAYLOAD) = payload;
    Py_INCREF(hkey);
    PS_SLOT(obj, PS_HASH64) = hkey;
    for (i = PS_BITS; i <= PS_ENTANGLED; i++) {
        Py_INCREF(Py_None);
        PS_SLOT(obj, i) = Py_None;
    }
    PyObject_GC_UnTrack(obj);
    return obj;
}

/* A new MergeMove(target=, theta=, controls=), untracked.  The frozen
 * dataclass's fields are set the way its __init__ sets them
 * (object.__setattr__, in field order). */
static PyObject *
new_merge_move(int target, double theta, PyObject *controls)
{
    PyObject *mv, *t, *th;
    int rc;
    mv = mm_type->tp_new(mm_type, empty_tuple, NULL);
    if (mv == NULL)
        return NULL;
    t = PyLong_FromLong(target);
    th = PyFloat_FromDouble(theta);
    rc = t == NULL || th == NULL ||
        PyObject_GenericSetAttr(mv, str_target, t) < 0 ||
        PyObject_GenericSetAttr(mv, str_theta, th) < 0 ||
        PyObject_GenericSetAttr(mv, str_controls, controls) < 0;
    Py_XDECREF(t);
    Py_XDECREF(th);
    if (rc) {
        Py_DECREF(mv);
        return NULL;
    }
    PyObject_GC_UnTrack(mv);
    return mv;
}

/* The MergeMove of a merge on `target` over the control cube
 * (idx & cmask) == cval: its controls are the cube's qubits in
 * ascending order (the lattice walk picks its representatives in that
 * order), each with its bit in cval. */
static PyObject *
merge_move_of(int n, int target, double theta, int64_t cmask, int64_t cval)
{
    PyObject *ctl = PyTuple_New(__builtin_popcountll((uint64_t)cmask));
    PyObject *move;
    int q, c = 0;
    if (ctl == NULL)
        return NULL;
    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        PyObject *lit;
        if (!((cmask >> shift) & 1))
            continue;
        lit = Py_BuildValue("(ii)", q, (int)((cval >> shift) & 1));
        if (lit == NULL) {
            Py_DECREF(ctl);
            return NULL;
        }
        PyObject_GC_UnTrack(lit);
        PyTuple_SET_ITEM(ctl, c++, lit);
    }
    PyObject_GC_UnTrack(ctl);
    move = new_merge_move(target, theta, ctl);
    Py_DECREF(ctl);
    return move;
}

/* ------------------------------------------------------------------ */
/* interning (twin of StatePool._intern)                               */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *table;     /* StatePool._table: hash -> state | [states] */
    PyObject *hash_fn;   /* kernel.state_hash64 when patched, else NULL */
    PyObject *nobj;      /* the register width as a Python int */
    int n;
    Py_ssize_t interned, hits, collisions;
} pool_ctx;

static int
same_state(PyObject *state, int n, PyObject *payload)
{
    PyObject *sn, *sp;
    if (!PyObject_TypeCheck(state, ps_type))
        return 0;
    sn = PS_SLOT(state, PS_N);
    sp = PS_SLOT(state, PS_PAYLOAD);
    if (sn == NULL || sp == NULL || !PyLong_Check(sn) ||
            PyLong_AsLong(sn) != n || !PyBytes_Check(sp))
        return 0;
    return PyBytes_GET_SIZE(sp) == PyBytes_GET_SIZE(payload) &&
        memcmp(PyBytes_AS_STRING(sp), PyBytes_AS_STRING(payload),
               (size_t)PyBytes_GET_SIZE(payload)) == 0;
}

/* Lookup-or-insert of the state with this payload under the pool key
 * hkey: a new reference to the interned PackedState, or NULL with an
 * exception set. */
static PyObject *
pool_intern_keyed(pool_ctx *pc, PyObject *payload, PyObject *hkey,
                  const int64_t *idx, const double *amp, const double *qamp,
                  Py_ssize_t m)
{
    PyObject *entry, *chain = NULL, *state = NULL;
    Py_ssize_t i;

    entry = PyDict_GetItemWithError(pc->table, hkey);
    if (entry == NULL) {
        if (PyErr_Occurred())
            return NULL;
        state = new_packed(pc->nobj, idx, amp, qamp, m, payload, hkey);
        if (state == NULL)
            return NULL;
        if (PyDict_SetItem(pc->table, hkey, state) < 0) {
            Py_DECREF(state);
            return NULL;
        }
        pc->interned++;
        return state;
    }
    if (PyList_CheckExact(entry)) {
        chain = entry;
        Py_INCREF(chain);
        for (i = 0; i < PyList_GET_SIZE(chain); i++) {
            PyObject *member = PyList_GET_ITEM(chain, i);
            if (same_state(member, pc->n, payload)) {
                pc->hits++;
                Py_INCREF(member);
                state = member;
                goto done;
            }
        }
    }
    else {
        if (same_state(entry, pc->n, payload)) {
            pc->hits++;
            Py_INCREF(entry);
            return entry;
        }
        chain = PyList_New(1);
        if (chain == NULL)
            return NULL;
        Py_INCREF(entry);
        PyList_SET_ITEM(chain, 0, entry);
        if (PyDict_SetItem(pc->table, hkey, chain) < 0)
            goto done;
    }
    pc->collisions++;
    state = new_packed(pc->nobj, idx, amp, qamp, m, payload, hkey);
    if (state == NULL)
        goto done;
    if (PyList_Append(chain, state) < 0) {
        Py_CLEAR(state);
        goto done;
    }
    pc->interned++;
done:
    Py_XDECREF(chain);
    return state;
}

/* Lookup-or-insert of one state by its rows. */
static PyObject *
pool_intern(pool_ctx *pc, const int64_t *idx, const double *amp,
            const double *qamp, Py_ssize_t m)
{
    PyObject *payload, *hkey = NULL, *state = NULL;

    payload = build_payload(pc->n, idx, qamp, m);
    if (payload == NULL)
        return NULL;
    if (pc->hash_fn != NULL) {
        hkey = PyObject_CallOneArg(pc->hash_fn, payload);
    }
    else {
        Py_hash_t h = PyObject_Hash(payload);
        if (h != -1)
            hkey = PyLong_FromSsize_t(h);
    }
    if (hkey != NULL)
        state = pool_intern_keyed(pc, payload, hkey, idx, amp, qamp, m);
    Py_XDECREF(hkey);
    Py_DECREF(payload);
    return state;
}

/* Add delta to the int in obj's slot at offset off. */
static int
slot_add(PyObject *obj, Py_ssize_t off, Py_ssize_t delta)
{
    PyObject **slot = &OBJ_SLOT(obj, off), *sum;
    Py_ssize_t cur;
    if (delta == 0)
        return 0;
    if (*slot == NULL || !PyLong_Check(*slot)) {
        PyErr_SetString(PyExc_TypeError, "a counter is not an int");
        return -1;
    }
    cur = PyLong_AsSsize_t(*slot);
    if (cur == -1 && PyErr_Occurred())
        return -1;
    sum = PyLong_FromSsize_t(cur + delta);
    if (sum == NULL)
        return -1;
    Py_SETREF(*slot, sum);
    return 0;
}

/* Add the interning counts of pc to the pool's own counters. */
static int
pool_count(PyObject *pool, const pool_ctx *pc)
{
    Py_ssize_t deltas[3] = {pc->interned, pc->hits, pc->collisions};
    int i;
    for (i = 0; i < 3; i++)
        if (slot_add(pool, sp_off[SP_INTERNED + i], deltas[i]) < 0)
            return -1;
    return 0;
}

/* Append (move, state) to the arc list; the pair tuple is untracked like
 * its members.  Steals nothing. */
static int
push_arc(PyObject *out, PyObject *move, PyObject *state)
{
    PyObject *arc = PyTuple_Pack(2, move, state);
    int rc;
    if (arc == NULL)
        return -1;
    PyObject_GC_UnTrack(arc);
    rc = PyList_Append(out, arc);
    Py_DECREF(arc);
    return rc;
}

/* Permute the parent state by the flipped indices in pairs[].v (pairs[].j
 * = source position) and write the sorted child rows. */
static void
gather_sorted(ij_pair *pairs, Py_ssize_t m, const double *amp,
              const double *qamp, int64_t *row_i, double *row_a,
              double *row_q)
{
    Py_ssize_t j;
    sort_ij_rows(pairs, m);
    for (j = 0; j < m; j++) {
        row_i[j] = pairs[j].v;
        row_a[j] = amp[pairs[j].j];
        row_q[j] = qamp[pairs[j].j];
    }
}

/* ------------------------------------------------------------------ */
/* one expansion, child by child                                       */
/* ------------------------------------------------------------------ */

/* The parent state and the move set of one expansion. */
typedef struct {
    int n;
    const int64_t *idx;
    const double *amp, *qamp;
    Py_ssize_t m;
    int x_moves;                 /* emit the n X children */
    const int64_t *controls, *phases, *targets;  /* the K CX moves */
    Py_ssize_t K;
    int max_controls;
    const int64_t *nbr;          /* per-qubit coupling masks, or NULL */
    double atol, rtol, scale;
} expand_spec;

enum { CHILD_X, CHILD_CX, CHILD_MERGE };

/* One child as the expansion hands it to its visitor: the move and the
 * sorted, quantized rows (scratch, valid during the visit only). */
typedef struct {
    int kind;
    Py_ssize_t pos;              /* X: the qubit; CX: the move's position */
    int target, nctl;            /* a merge: its target, angle and the */
    double theta;                /* control cube (idx & cmask) == cval */
    int64_t cmask, cval;
    const int64_t *idx;
    const double *amp, *qamp;
    Py_ssize_t m;
} child_view;

typedef int (*child_visitor)(void *ctx, const child_view *cv);

/* scratch of expand_children, sized for parents up to mcap entries on
 * up to ncap qubits */
typedef struct {
    Py_ssize_t mcap;
    int ncap;
    ij_pair *pairs;
    int64_t *row_i, *i0, *singles, *pcodes, *scodes;
    double *row_a, *row_q, *a0, *a1;
    unsigned char *cols;
    apply_scratch sc;
    walk_list wl;
} expand_scratch;

static void
expand_scratch_init(expand_scratch *es)
{
    memset(es, 0, sizeof(*es));
    es->mcap = -1;
}

static void
expand_scratch_free(expand_scratch *es)
{
    PyMem_Free(es->pairs);
    PyMem_Free(es->row_i);
    PyMem_Free(es->row_a);
    PyMem_Free(es->row_q);
    PyMem_Free(es->i0);
    PyMem_Free(es->singles);
    PyMem_Free(es->pcodes);
    PyMem_Free(es->scodes);
    PyMem_Free(es->a0);
    PyMem_Free(es->a1);
    PyMem_Free(es->cols);
    apply_scratch_free(&es->sc);
    PyMem_Free(es->wl.hits);
    expand_scratch_init(es);
}

static int
expand_scratch_reserve(expand_scratch *es, int n, Py_ssize_t m)
{
    if (m <= es->mcap && n <= es->ncap)
        return 0;
    if (m < es->mcap)
        m = es->mcap;
    if (n < es->ncap)
        n = es->ncap;
    expand_scratch_free(es);
    es->pairs = PyMem_Malloc((size_t)(m + 1) * sizeof(ij_pair));
    es->row_i = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(int64_t));
    es->row_a = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(double));
    es->row_q = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(double));
    es->i0 = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    es->singles = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    es->pcodes = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    es->scodes = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    es->a0 = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    es->a1 = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    es->cols = PyMem_Malloc((size_t)(n + 1) * (size_t)(m + 1));
    if (es->pairs == NULL || es->row_i == NULL || es->row_a == NULL ||
            es->row_q == NULL || es->i0 == NULL || es->singles == NULL ||
            es->pcodes == NULL || es->scodes == NULL || es->a0 == NULL ||
            es->a1 == NULL || es->cols == NULL) {
        expand_scratch_free(es);
        PyErr_NoMemory();
        return -1;
    }
    if (apply_scratch_alloc(&es->sc, m) < 0) {
        expand_scratch_free(es);
        return -1;
    }
    es->mcap = m;
    es->ncap = n;
    return 0;
}

/* One whole expansion of kernel.successors_packed, in the Python path's
 * order: the X children (when asked for), the CX children of the
 * memoized move list, then every merge of every target (twin of
 * enumerate_merges_packed followed by _merge_arrays and the
 * quantization pass).  Each child's rows are computed into the scratch
 * and handed to visit(ctx, child); X and CX children equal to the parent
 * are handed over too (the visitor drops them).  Returns 0, or -1 with
 * an exception set (a visitor's error stops the expansion). */
static int
expand_children(const expand_spec *sp, expand_scratch *es,
                child_visitor visit, void *ctx)
{
    int n = sp->n, q, target;
    Py_ssize_t m = sp->m, k, j, h;
    const int64_t *idx = sp->idx;
    const double *amp = sp->amp, *qamp = sp->qamp;
    int64_t other[64], reps[64];
    child_view cv;

    cv.idx = es->row_i;
    cv.amp = es->row_a;
    cv.qamp = es->row_q;
    cv.target = cv.nctl = 0;
    cv.theta = 0.0;
    cv.cmask = cv.cval = 0;
    cv.m = m;
    /* X moves (twin of apply_x_packed) */
    cv.kind = CHILD_X;
    for (q = 0; sp->x_moves && q < n; q++) {
        int64_t mask = (int64_t)1 << (n - 1 - q);
        for (j = 0; j < m; j++) {
            es->pairs[j].v = idx[j] ^ mask;
            es->pairs[j].j = j;
        }
        gather_sorted(es->pairs, m, amp, qamp, es->row_i, es->row_a,
                      es->row_q);
        cv.pos = q;
        if (visit(ctx, &cv) < 0)
            return -1;
    }
    /* CX moves (twin of _batch_cx_successors) */
    cv.kind = CHILD_CX;
    for (k = 0; k < sp->K; k++) {
        int cshift = n - 1 - (int)sp->controls[k];
        int64_t phase = sp->phases[k];
        int64_t tmask = (int64_t)1 << (n - 1 - (int)sp->targets[k]);
        for (j = 0; j < m; j++) {
            int64_t v = idx[j];
            if (((v >> cshift) & 1) == phase)
                v ^= tmask;
            es->pairs[j].v = v;
            es->pairs[j].j = j;
        }
        gather_sorted(es->pairs, m, amp, qamp, es->row_i, es->row_a,
                      es->row_q);
        cv.pos = k;
        if (visit(ctx, &cv) < 0)
            return -1;
    }
    /* merges, target by target */
    cv.kind = CHILD_MERGE;
    cv.pos = 0;
    for (target = 0; target < n; target++) {
        int tshift = n - 1 - target, nreps, kmax;
        int64_t tmask = (int64_t)1 << tshift;
        int64_t tnbr = sp->nbr != NULL ? sp->nbr[target] : -1;
        Py_ssize_t P, S, O = 0;
        P = split_pairs(idx, amp, m, tmask, es->i0, es->a0, es->a1,
                        es->singles, &S);
        if (P == 0)
            continue;
        for (q = 0; q < n; q++) {
            if (q != target && ((tnbr >> q) & 1))
                other[O++] = q;
        }
        nreps = rep_codes(n, es->i0, P, es->singles, S, other, O, es->cols,
                          reps, es->pcodes, es->scodes);
        kmax = sp->max_controls < nreps ? sp->max_controls : nreps;
        es->wl.count = 0;
        if (merge_walk_core(es->pcodes, P, es->scodes, S, es->a0, es->a1,
                            nreps, kmax, sp->rtol, &es->wl) < 0)
            return -1;
        for (h = 0; h < es->wl.count; h++) {
            const walk_hit *hit = &es->wl.hits[h];
            int64_t smask = hit->smask, ref_idx = es->i0[hit->ref];
            int64_t cmask = 0, cval = 0;
            int r, nctl = 0;
            Py_ssize_t count;
            double theta = merge_angle(es->a0[hit->ref], es->a1[hit->ref],
                                       hit->direction);
            for (r = 0; r < nreps; r++) {
                int shift;
                if (!((smask >> r) & 1))
                    continue;
                shift = n - 1 - (int)reps[r];
                cmask |= (int64_t)1 << shift;
                cval |= ((ref_idx >> shift) & 1) << shift;
                nctl++;
            }
            count = merge_apply_core(idx, amp, m, cmask, cval, tmask, theta,
                                     sp->atol, &es->sc, 1);
            for (j = 0; j < count; j++) {
                double qv = rint(es->sc.out[j].a * sp->scale) / sp->scale;
                if (qv == 0.0)
                    qv = 0.0;  /* normalize -0.0 */
                es->row_i[j] = es->sc.out[j].v;
                es->row_a[j] = es->sc.out[j].a;
                es->row_q[j] = qv;
            }
            cv.target = target;
            cv.nctl = nctl;
            cv.theta = theta;
            cv.cmask = cmask;
            cv.cval = cval;
            cv.m = count;
            if (visit(ctx, &cv) < 0)
                return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* successors(table, hash_fn, ps, x_moves, cx_moves, cx_controls,      */
/*            cx_phases, cx_targets, max_controls, neighbor_masks,     */
/*            atol, rtol, scale) -> (arcs, interned, hits, collisions) */
/* ------------------------------------------------------------------ */

typedef struct {
    pool_ctx pc;
    PyObject *ps, *out, *x_moves, *cx_moves;
} arc_ctx;

/* Intern the child and append its arc (an X or CX child equal to the
 * parent is dropped, as the Python path drops it). */
static int
arc_visit(void *vctx, const child_view *cv)
{
    arc_ctx *ac = vctx;
    PyObject *move, *nxt;
    int rc = 0;
    if (cv->kind == CHILD_MERGE) {
        move = merge_move_of(ac->pc.n, cv->target, cv->theta, cv->cmask,
                             cv->cval);
        if (move == NULL)
            return -1;
    }
    else {
        move = PyList_GET_ITEM(cv->kind == CHILD_X ? ac->x_moves
                                                   : ac->cx_moves, cv->pos);
        Py_INCREF(move);
    }
    nxt = pool_intern(&ac->pc, cv->idx, cv->amp, cv->qamp, cv->m);
    if (nxt == NULL) {
        Py_DECREF(move);
        return -1;
    }
    if (cv->kind == CHILD_MERGE || nxt != ac->ps)
        rc = push_arc(ac->out, move, nxt);
    Py_DECREF(move);
    Py_DECREF(nxt);
    return rc;
}

/* Read n per-qubit coupling masks from a list or tuple of ints. */
static int
neighbor_masks(PyObject *nbr, int n, int64_t *masks)
{
    int q;
    for (q = 0; q < n; q++) {
        masks[q] = (int64_t)PyLong_AsLongLong(
            PySequence_Fast_GET_ITEM(nbr, q));
        if (masks[q] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* One whole expansion (x_moves is the list of n XMoves, or None; the CX
 * moves are the memoized list and its arrays; neighbor_masks None, or
 * per-qubit coupling masks restricting merge controls).  Each child is
 * quantized, serialized, hashed and interned into the pool's table; the
 * arcs come back in the Python path's order, with the pool counter
 * deltas. */
static PyObject *
fc_successors(PyObject *self, PyObject *args)
{
    PyObject *table, *hash_fn, *ps, *x_moves, *cx_moves, *nbr;
    PyObject *c_o, *p_o, *t_o, *res = NULL, *nobj;
    int max_controls, n, nbuf = 0;
    double atol, rtol, scale;
    Py_buffer idx_b, amp_b, qamp_b, c_b, p_b, t_b;
    Py_buffer *bufs[6] = {&idx_b, &amp_b, &qamp_b, &c_b, &p_b, &t_b};
    int64_t masks[64];
    expand_spec sp;
    expand_scratch es;
    arc_ctx ac;

    expand_scratch_init(&es);
    ac.out = NULL;
    if (!PyArg_ParseTuple(args, "OOOOOOOOiOddd", &table, &hash_fn, &ps,
                          &x_moves, &cx_moves, &c_o, &p_o, &t_o,
                          &max_controls, &nbr, &atol, &rtol, &scale))
        return NULL;
    if (ps_type == NULL || mm_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "successors: bind_kernel() was not called");
        return NULL;
    }
    if (!PyDict_Check(table) || !PyObject_TypeCheck(ps, ps_type) ||
            !PyList_Check(cx_moves) ||
            (x_moves != Py_None && !PyList_Check(x_moves)) ||
            (nbr != Py_None && !PyList_Check(nbr) && !PyTuple_Check(nbr))) {
        PyErr_SetString(PyExc_TypeError, "successors: bad argument types");
        return NULL;
    }
    nobj = PS_SLOT(ps, PS_N);
    n = nobj == NULL ? -1 : (int)PyLong_AsLong(nobj);
    if (n < 0 || n > 62) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "successors: bad width");
        return NULL;
    }
    if ((x_moves != Py_None && PyList_GET_SIZE(x_moves) < n) ||
            (nbr != Py_None && PySequence_Fast_GET_SIZE(nbr) < n)) {
        PyErr_SetString(PyExc_ValueError, "successors: short move list");
        return NULL;
    }
    if (nbr != Py_None && neighbor_masks(nbr, n, masks) < 0)
        return NULL;
    {
        PyObject *objs[6] = {PS_SLOT(ps, PS_IDX), PS_SLOT(ps, PS_AMP),
                             PS_SLOT(ps, PS_QAMP), c_o, p_o, t_o};
        for (nbuf = 0; nbuf < 6; nbuf++) {
            if (objs[nbuf] == NULL) {
                PyErr_SetString(PyExc_ValueError, "successors: unset slot");
                goto done;
            }
            if (get_buf(objs[nbuf], bufs[nbuf], 0) < 0)
                goto done;
        }
    }
    sp.n = n;
    sp.m = idx_b.len / 8;
    sp.K = c_b.len / 8;
    if (PyList_GET_SIZE(cx_moves) != sp.K || p_b.len / 8 != sp.K ||
            t_b.len / 8 != sp.K) {
        PyErr_SetString(PyExc_ValueError, "successors: CX list mismatch");
        goto done;
    }
    sp.idx = (const int64_t *)idx_b.buf;
    sp.amp = (const double *)amp_b.buf;
    sp.qamp = (const double *)qamp_b.buf;
    sp.x_moves = x_moves != Py_None;
    sp.controls = (const int64_t *)c_b.buf;
    sp.phases = (const int64_t *)p_b.buf;
    sp.targets = (const int64_t *)t_b.buf;
    sp.max_controls = max_controls;
    sp.nbr = nbr != Py_None ? masks : NULL;
    sp.atol = atol;
    sp.rtol = rtol;
    sp.scale = scale;
    if (expand_scratch_reserve(&es, n, sp.m) < 0)
        goto done;
    ac.out = PyList_New(0);
    if (ac.out == NULL)
        goto done;
    ac.pc.table = table;
    ac.pc.hash_fn = hash_fn == Py_None ? NULL : hash_fn;
    ac.pc.nobj = nobj;
    ac.pc.n = n;
    ac.pc.interned = ac.pc.hits = ac.pc.collisions = 0;
    ac.ps = ps;
    ac.x_moves = x_moves;
    ac.cx_moves = cx_moves;
    /* on an error the pool keeps whatever was interned before it */
    if (expand_children(&sp, &es, arc_visit, &ac) < 0)
        goto done;
    res = Py_BuildValue("(Onnn)", ac.out, ac.pc.interned, ac.pc.hits,
                        ac.pc.collisions);
done:
    Py_XDECREF(ac.out);
    expand_scratch_free(&es);
    while (nbuf > 0)
        PyBuffer_Release(bufs[--nbuf]);
    return res;
}

/* ------------------------------------------------------------------ */
/* the sparse reduction's steps on packed arrays (twins of             */
/* baselines.mflow._merge_step and qsp.reduction._best_multi_merge)    */
/* ------------------------------------------------------------------ */

/* constants.ATOL and constants.MERGE_RATIO_RTOL (tests/test_fastcore.py
 * pins both to the Python values) */
#define REDUCE_ATOL 5e-11
#define REDUCE_RTOL 1e-9

/* Raise repro.exceptions.<name>(msg), the error the twin raises; steals
 * msg (NULL: an error is already set). */
static void
raise_repro(const char *name, PyObject *msg)
{
    PyObject *mod, *cls;
    if (msg == NULL)
        return;
    mod = PyImport_ImportModule("repro.exceptions");
    cls = mod == NULL ? NULL : PyObject_GetAttrString(mod, name);
    if (cls != NULL)
        PyErr_SetObject(cls, msg);
    Py_XDECREF(cls);
    Py_XDECREF(mod);
    Py_DECREF(msg);
}

/* The checks QState(n, amps, normalize=False) makes on a result row
 * whose entries at or below ATOL were never written: indices in range,
 * at least one entry, norm within 1e-6 of 1.  Returns 0, or -1 with
 * QState's exception set. */
static int
qstate_checks(int n, const ia_pair *row, Py_ssize_t count)
{
    Py_ssize_t j;
    double sq = 0.0, norm;
    for (j = 0; j < count; j++) {
        if (row[j].v < 0 || row[j].v >= ((int64_t)1 << n)) {
            raise_repro("StateError", PyUnicode_FromFormat(
                "basis index %lld out of range for %d qubits",
                (long long)row[j].v, n));
            return -1;
        }
        sq += row[j].a * row[j].a;
    }
    if (count == 0) {
        raise_repro("StateError",
                    PyUnicode_FromString("state has no nonzero amplitude"));
        return -1;
    }
    norm = sqrt(sq);
    if (fabs(norm - 1.0) > 1e-6) {
        PyObject *nv = PyFloat_FromDouble(norm);
        raise_repro("NormalizationError", nv == NULL ? NULL :
                    PyUnicode_FromFormat("state norm %R != 1", nv));
        Py_XDECREF(nv);
        return -1;
    }
    return 0;
}

/* GH Algorithm 1 (twin of mflow.dif_qubits): narrow the index set to a
 * pair by literals (q, v), each time taking the smallest side that keeps
 * two or more indices, ties to the lowest qubit, then to value 0; with
 * `minimize`, keep a literal only when the literals after it and the
 * ones kept before it still select an index outside the pair.  bucket
 * holds m slots; the pair's positions come back ascending in pair[].
 * Returns the literal count, or -1 with SynthesisError set. */
static int
dif_qubits_core(int n, const int64_t *idx, Py_ssize_t m, int minimize,
                Py_ssize_t *bucket, int *lq, int *lv, Py_ssize_t *pair)
{
    Py_ssize_t size = m, j, k;
    int nl = 0, nk = 0, q, pos, t;

    if (m < 2) {
        raise_repro("SynthesisError", PyUnicode_FromString(
            "need at least two indices to isolate a pair"));
        return -1;
    }
    for (j = 0; j < m; j++)
        bucket[j] = j;
    while (size > 2) {
        int bq = -1, bv = 0, shift;
        Py_ssize_t best = size;  /* a usable side is smaller than size */
        for (q = 0; q < n; q++) {
            Py_ssize_t ones = 0, zeros;
            shift = n - 1 - q;
            for (j = 0; j < size; j++)
                ones += (idx[bucket[j]] >> shift) & 1;
            zeros = size - ones;
            if (zeros >= 2 && zeros < best) {
                best = zeros;
                bq = q;
                bv = 0;
            }
            if (ones >= 2 && ones < best) {
                best = ones;
                bq = q;
                bv = 1;
            }
        }
        if (bq < 0) {
            raise_repro("SynthesisError", PyUnicode_FromString(
                "identical indices in the bucket"));
            return -1;
        }
        /* the chosen column is constant on what is left: at most n rounds */
        lq[nl] = bq;
        lv[nl++] = bv;
        shift = n - 1 - bq;
        for (j = 0, k = 0; j < size; j++) {
            if (((idx[bucket[j]] >> shift) & 1) == bv)
                bucket[k++] = bucket[j];
        }
        size = k;
    }
    pair[0] = bucket[0];
    pair[1] = bucket[1];
    if (!minimize)
        return nl;
    for (pos = 0; pos < nl; pos++) {
        int needed = 0;
        for (j = 0; j < m && !needed; j++) {
            int64_t v = idx[j];
            int selected = 1;
            if (v == idx[pair[0]] || v == idx[pair[1]])
                continue;
            for (t = 0; t < nk && selected; t++)
                selected = ((v >> (n - 1 - lq[t])) & 1) == lv[t];
            for (t = pos + 1; t < nl && selected; t++)
                selected = ((v >> (n - 1 - lq[t])) & 1) == lv[t];
            needed = selected;
        }
        if (needed) {  /* kept literals compact in place: nk <= pos */
            lq[nk] = lq[pos];
            lv[nk++] = lv[pos];
        }
    }
    return nk;
}

/* The (idx, amp) ndarrays of a result row, or -1 with an exception. */
static int
row_arrays(const ia_pair *row, Py_ssize_t count, PyObject **ia,
           PyObject **aa)
{
    npy_intp dims[1];
    Py_ssize_t j;
    int64_t *ip;
    double *ap;
    dims[0] = (npy_intp)count;
    *ia = PyArray_SimpleNew(1, dims, NPY_INT64);
    *aa = PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    if (*ia == NULL || *aa == NULL) {
        Py_CLEAR(*ia);
        Py_CLEAR(*aa);
        return -1;
    }
    ip = (int64_t *)PyArray_DATA((PyArrayObject *)*ia);
    ap = (double *)PyArray_DATA((PyArrayObject *)*aa);
    for (j = 0; j < count; j++) {
        ip[j] = row[j].v;
        ap[j] = row[j].a;
    }
    return 0;
}

/* A tuple of (qubit, value) literal tuples. */
static PyObject *
literal_tuple(const int *qs, const int *vs, int count)
{
    PyObject *res = PyTuple_New(count);
    int j;
    if (res == NULL)
        return NULL;
    for (j = 0; j < count; j++) {
        PyObject *lit = Py_BuildValue("(ii)", qs[j], vs[j]);
        if (lit == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyTuple_SET_ITEM(res, j, lit);
    }
    return res;
}

/* The (idx, amp) arguments of a reduction step: an ascending int64 and
 * a float64 ndarray of one length m.  Returns 0, or -1 with an exception
 * (no buffer held). */
static int
reduce_args(const char *fn, int n, PyObject *idx_o, PyObject *amp_o,
            Py_buffer *idx_b, Py_buffer *amp_b, Py_ssize_t *m)
{
    Py_ssize_t j;
    const int64_t *idx;
    if (n < 1 || n > 62) {
        PyErr_Format(PyExc_ValueError, "%s: bad width %d", fn, n);
        return -1;
    }
    if (!PyArray_Check(idx_o) || !PyArray_Check(amp_o) ||
            PyArray_TYPE((PyArrayObject *)idx_o) != NPY_INT64 ||
            PyArray_TYPE((PyArrayObject *)amp_o) != NPY_FLOAT64) {
        PyErr_Format(PyExc_TypeError,
                     "%s: idx must be an int64, amp a float64 ndarray", fn);
        return -1;
    }
    if (get_buf(idx_o, idx_b, 0) < 0)
        return -1;
    if (get_buf(amp_o, amp_b, 0) < 0) {
        PyBuffer_Release(idx_b);
        return -1;
    }
    *m = idx_b->len / 8;
    idx = (const int64_t *)idx_b->buf;
    for (j = 1; j < *m && idx[j - 1] <= idx[j]; j++)
        ;
    if (idx_b->len != amp_b->len || j < *m) {
        PyErr_Format(PyExc_ValueError, "%s: idx must be ascending and as "
                     "long as amp", fn);
        PyBuffer_Release(idx_b);
        PyBuffer_Release(amp_b);
        return -1;
    }
    return 0;
}

/* gh_step(n, idx, amp, minimize_literals)
 *   -> (literals, p, targets, theta, idx, amp)
 * One GH merge of a sorted packed state (twin of mflow._merge_step):
 * dif_qubits, then CX(p -> r) for every other position r where the pair
 * differs, applied as one fan-out and re-sorted, then the fold of the
 * aligned pair by Ry(theta) on p (mflow._fold_pair, same expressions).
 * Entries at or below ATOL are dropped, and the aligned state (when there
 * are CNOTs) and the folded one get QState's checks. */
static PyObject *
fc_gh_step(PyObject *self, PyObject *args)
{
    int n, minimize, nl, q, p = -1, ntargets = 0, lq[64], lv[64];
    int targets[64];
    PyObject *idx_o, *amp_o, *res = NULL, *lits, *tg, *ia, *aa;
    Py_buffer idx_b, amp_b;
    const int64_t *idx;
    const double *amp;
    Py_ssize_t m, j, k, count = 0, pair[2], lo_at = -1;
    Py_ssize_t *bucket = NULL;
    ia_pair *row = NULL;
    int64_t pmask, flip = 0, lo, hi;
    double a0 = 0.0, a1 = 0.0, theta, c, s, new0, new1;

    if (!PyArg_ParseTuple(args, "iOOp", &n, &idx_o, &amp_o, &minimize))
        return NULL;
    if (reduce_args("gh_step", n, idx_o, amp_o, &idx_b, &amp_b, &m) < 0)
        return NULL;
    idx = (const int64_t *)idx_b.buf;
    amp = (const double *)amp_b.buf;
    bucket = PyMem_Malloc((size_t)(m + 1) * sizeof(Py_ssize_t));
    row = PyMem_Malloc((size_t)(m + 2) * sizeof(ia_pair));
    if (bucket == NULL || row == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    nl = dif_qubits_core(n, idx, m, minimize, bucket, lq, lv, pair);
    if (nl < 0)
        goto done;
    for (q = 0; q < n; q++) {
        if (((idx[pair[0]] ^ idx[pair[1]]) >> (n - 1 - q)) & 1) {
            if (p < 0)
                p = q;
            else
                targets[ntargets++] = q;
        }
    }
    if (p < 0) {
        raise_repro("SynthesisError", PyUnicode_FromString(
            "identical indices in the bucket"));
        goto done;
    }
    pmask = (int64_t)1 << (n - 1 - p);
    for (q = 0; q < ntargets; q++)
        flip ^= (int64_t)1 << (n - 1 - targets[q]);
    /* the pair member with p clear; its partner aligns to lo | pmask */
    lo = (idx[pair[0]] & pmask) ? idx[pair[1]] : idx[pair[0]];
    hi = lo | pmask;
    for (j = 0; j < m; j++) {
        int64_t v = idx[j];
        if (fabs(amp[j]) <= REDUCE_ATOL)
            continue;
        row[count].v = (v & pmask) ? v ^ flip : v;
        row[count++].a = amp[j];
    }
    if (ntargets > 0 && qstate_checks(n, row, count) < 0)
        goto done;
    for (j = 0; j < count; j++) {
        if (row[j].v == lo) {
            lo_at = j;
            a0 = row[j].a;
        }
        else if (row[j].v == hi) {
            a1 = row[j].a;
        }
    }
    theta = merge_angle(a0, a1, 0);
    c = cos(theta / 2.0);
    s = sin(theta / 2.0);
    new0 = c * a0 - s * a1;
    new1 = s * a0 + c * a1;
    for (j = 0, k = 0; j < count; j++) {
        if (row[j].v != lo && row[j].v != hi)
            row[k++] = row[j];
    }
    if (lo_at >= 0) {  /* _fold_pair writes the pair where lo was */
        if (fabs(new0) > REDUCE_ATOL) {
            row[k].v = lo;
            row[k++].a = new0;
        }
        if (fabs(new1) > REDUCE_ATOL) {
            row[k].v = hi;
            row[k++].a = new1;
        }
    }
    qsort(row, (size_t)k, sizeof(ia_pair), cmp_ia_pair);
    if (qstate_checks(n, row, k) < 0)
        goto done;
    if (row_arrays(row, k, &ia, &aa) < 0)
        goto done;
    lits = literal_tuple(lq, lv, nl);
    tg = int_tuple(targets, ntargets);
    if (lits == NULL || tg == NULL) {
        Py_XDECREF(lits);
        Py_XDECREF(tg);
        Py_DECREF(ia);
        Py_DECREF(aa);
        goto done;
    }
    res = Py_BuildValue("(NiNdNN)", lits, p, tg, theta, ia, aa);
done:
    PyMem_Free(bucket);
    PyMem_Free(row);
    PyBuffer_Release(&idx_b);
    PyBuffer_Release(&amp_b);
    return res;
}

/* best_merge(n, idx, amp, max_controls)
 *   -> None | (target, theta, controls, drop, idx, amp)
 * The greedy's multi-pair scoring on a sorted packed state (twin of
 * reduction._best_multi_merge): every merge enumerate_merges_packed makes
 * without a topology, target by target in its order, is applied to count
 * the indices it folds away (`drop`), with QState's checks as Move.apply
 * makes them.  The winner has the lowest cost / drop, ties to the larger
 * drop, then to the first enumerated; it comes back with its merged,
 * sorted arrays. */
static PyObject *
fc_best_merge(PyObject *self, PyObject *args)
{
    int n, max_controls, target, q, r, have = 0;
    int best_target = 0, best_nctl = 0, best_cq[64], best_cv[64];
    PyObject *idx_o, *amp_o, *res = NULL, *ctl, *ia, *aa;
    Py_buffer idx_b, amp_b;
    const int64_t *idx;
    const double *amp;
    Py_ssize_t m, h, count, best_drop = 0;
    int64_t *i0 = NULL, *singles = NULL, *pcodes = NULL, *scodes = NULL;
    int64_t other[64], reps[64], best_cmask = 0, best_cval = 0;
    double *a0 = NULL, *a1 = NULL, best_score = 0.0, best_theta = 0.0;
    unsigned char *cols = NULL;
    apply_scratch sc = {NULL, NULL, NULL, NULL, NULL, NULL};
    walk_list wl = {NULL, 0, 0};

    if (!PyArg_ParseTuple(args, "iOOi", &n, &idx_o, &amp_o, &max_controls))
        return NULL;
    if (reduce_args("best_merge", n, idx_o, amp_o, &idx_b, &amp_b, &m) < 0)
        return NULL;
    idx = (const int64_t *)idx_b.buf;
    amp = (const double *)amp_b.buf;
    if (max_controls > n - 1)
        max_controls = n - 1;
    i0 = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    singles = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    pcodes = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    scodes = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    a0 = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    a1 = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    cols = PyMem_Malloc((size_t)(n + 1) * (size_t)(m + 1));
    if (i0 == NULL || singles == NULL || pcodes == NULL || scodes == NULL ||
            a0 == NULL || a1 == NULL || cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (apply_scratch_alloc(&sc, m) < 0)
        goto done;
    for (target = 0; target < n; target++) {
        int tshift = n - 1 - target, nreps, kmax;
        int64_t tmask = (int64_t)1 << tshift;
        Py_ssize_t P, S, O = 0;
        P = split_pairs(idx, amp, m, tmask, i0, a0, a1, singles, &S);
        if (P == 0)
            continue;
        for (q = 0; q < n; q++) {
            if (q != target)
                other[O++] = q;
        }
        nreps = rep_codes(n, i0, P, singles, S, other, O, cols, reps,
                          pcodes, scodes);
        kmax = max_controls < nreps ? max_controls : nreps;
        wl.count = 0;
        if (merge_walk_core(pcodes, P, scodes, S, a0, a1, nreps, kmax,
                            REDUCE_RTOL, &wl) < 0)
            goto done;
        for (h = 0; h < wl.count; h++) {
            int64_t smask = wl.hits[h].smask, ref_idx = i0[wl.hits[h].ref];
            int64_t cmask = 0, cval = 0;
            double theta = merge_angle(a0[wl.hits[h].ref],
                                       a1[wl.hits[h].ref],
                                       wl.hits[h].direction);
            double score;
            int nctl = 0;
            Py_ssize_t drop;
            for (r = 0; r < nreps; r++) {
                int shift = n - 1 - (int)reps[r];
                if (!((smask >> r) & 1))
                    continue;
                cmask |= (int64_t)1 << shift;
                cval |= ((ref_idx >> shift) & 1) << shift;
                nctl++;
            }
            count = merge_apply_core(idx, amp, m, cmask, cval, tmask, theta,
                                     REDUCE_ATOL, &sc, 0);
            if (qstate_checks(n, sc.out, count) < 0)
                goto done;
            drop = m - count;
            if (drop < 1)
                continue;
            /* mcry_cnot_cost(nctl) / drop, as Python's int / int */
            score = (double)(nctl ? (int64_t)1 << nctl : 0) / (double)drop;
            if (have && !(score < best_score ||
                          (score == best_score && drop > best_drop)))
                continue;
            have = 1;
            best_score = score;
            best_drop = drop;
            best_target = target;
            best_theta = theta;
            best_cmask = cmask;
            best_cval = cval;
            best_nctl = 0;
            for (r = 0; r < nreps; r++) {
                if ((smask >> r) & 1) {
                    best_cq[best_nctl] = (int)reps[r];
                    best_cv[best_nctl++] =
                        (int)((ref_idx >> (n - 1 - (int)reps[r])) & 1);
                }
            }
        }
    }
    if (!have) {
        res = Py_NewRef(Py_None);
        goto done;
    }
    count = merge_apply_core(idx, amp, m, best_cmask, best_cval,
                             (int64_t)1 << (n - 1 - best_target), best_theta,
                             REDUCE_ATOL, &sc, 1);
    if (row_arrays(sc.out, count, &ia, &aa) < 0)
        goto done;
    ctl = literal_tuple(best_cq, best_cv, best_nctl);
    if (ctl == NULL) {
        Py_DECREF(ia);
        Py_DECREF(aa);
        goto done;
    }
    res = Py_BuildValue("(idNnNN)", best_target, best_theta, ctl, best_drop,
                        ia, aa);
done:
    PyMem_Free(i0);
    PyMem_Free(singles);
    PyMem_Free(pcodes);
    PyMem_Free(scodes);
    PyMem_Free(a0);
    PyMem_Free(a1);
    PyMem_Free(cols);
    apply_scratch_free(&sc);
    PyMem_Free(wl.hits);
    PyBuffer_Release(&idx_b);
    PyBuffer_Release(&amp_b);
    return res;
}

/* ------------------------------------------------------------------ */
/* candidate orderings (twin of kernel._orderings_packed)              */
/* ------------------------------------------------------------------ */

/* kernel._REFINE_WORK_LIMIT: refine the tie partition when the ordering
 * enumeration would touch more candidate elements than this; the
 * symmetric-cell probe runs above half of it. */
#define REFINE_WORK_LIMIT 600

/* Non-negative product saturating at 2^62 (only ever compared with caps
 * and work limits far below it). */
static int64_t
sat_mul(int64_t a, int64_t b)
{
    const int64_t top = (int64_t)1 << 62;
    if (a == 0 || b == 0)
        return 0;
    if (a > top / b)
        return top;
    return a * b;
}

typedef struct {
    uint64_t key;
    int q;
} cell_tag;

static int
cmp_cell_tag(const void *pa, const void *pb)
{
    const cell_tag *a = (const cell_tag *)pa, *b = (const cell_tag *)pb;
    if (a->key != b->key)
        return a->key < b->key ? -1 : 1;
    return (a->q > b->q) - (a->q < b->q);
}

/* Lexicographic next permutation in place; 0 after the last one. */
static int
next_perm(int *a, int k)
{
    int i = k - 2, j, t;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return 0;
    j = k - 1;
    while (a[j] <= a[i])
        j--;
    t = a[i];
    a[i] = a[j];
    a[j] = t;
    for (i = i + 1, j = k - 1; i < j; i++, j--) {
        t = a[i];
        a[i] = a[j];
        a[j] = t;
    }
    return 1;
}

/* Grow an int buffer to hold at least need entries. */
static int
grow_ints(int **buf, Py_ssize_t *cap, Py_ssize_t need)
{
    Py_ssize_t size = *cap ? *cap : 64;
    int *grown;
    if (need <= *cap)
        return 0;
    while (size < need)
        size *= 2;
    grown = PyMem_Realloc(*buf, (size_t)size * sizeof(int));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    *cap = size;
    return 0;
}

/* Re-tag the qubits through kernel._refine_tags; its tags are Python
 * hashes (signed), mapped to unsigned keys that sort the same way. */
static int
refine_cells(PyObject *nobj, int n, const int64_t *idx,
             const double *absamp, Py_ssize_t m, const uint64_t *sig,
             cell_tag *ct)
{
    PyObject *idx_a, *abs_a, *sig_l, *tags = NULL;
    int q, rc = -1;

    idx_a = new_array(idx, m, NPY_INT64);
    abs_a = new_array(absamp, m, NPY_FLOAT64);
    sig_l = PyList_New(n);
    if (idx_a == NULL || abs_a == NULL || sig_l == NULL)
        goto done;
    for (q = 0; q < n; q++) {
        PyObject *v = PyLong_FromUnsignedLongLong(sig[q]);
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(sig_l, q, v);
    }
    tags = PyObject_CallFunctionObjArgs(refine_fn, nobj, idx_a, abs_a,
                                        sig_l, NULL);
    if (tags == NULL)
        goto done;
    if (!PyList_Check(tags) || PyList_GET_SIZE(tags) != n) {
        PyErr_SetString(PyExc_TypeError,
                        "canon_key: refinement must return n tags");
        goto done;
    }
    for (q = 0; q < n; q++) {
        long long v = PyLong_AsLongLong(PyList_GET_ITEM(tags, q));
        if (v == -1 && PyErr_Occurred())
            goto done;
        ct[q].key = (uint64_t)v ^ SIGNBIT64;
        ct[q].q = q;
    }
    rc = 0;
done:
    Py_XDECREF(idx_a);
    Py_XDECREF(abs_a);
    Py_XDECREF(sig_l);
    Py_XDECREF(tags);
    return rc;
}

/* The candidate qubit orderings of one state: rows of n qubits in a new
 * buffer *out (PyMem), in the Python twin's order.  The distinct-weight
 * fast path, the signature cells sorted by tag, the symmetric-cell
 * probe and the capped permutations and product all run here; only
 * ties that trigger refinement call back into Python.  Returns the row
 * count, or -1 with an exception set. */
static Py_ssize_t
orderings_core(PyObject *nobj, int n, const int64_t *idx,
               const double *qamp, Py_ssize_t m, Py_ssize_t perm_cap,
               Py_ssize_t num_heavy, int **out)
{
    int64_t weights[64];
    uint64_t sig[64], total_mix = 0;
    cell_tag ct[64];
    int cell_start[65], ncells = 0, q, p, c, distinct = 1, multi = 0;
    Py_ssize_t opt_cnt[64], opt_off[64], opt_cap = 0, opt_len = 0;
    Py_ssize_t nrows = 0, j;
    int64_t product = 1, est = 0, total = 1;
    int small, probe, *opts = NULL, *rows = NULL;
    double *absamp = NULL;
    ij_pair *pairs = NULL;

    *out = NULL;
    /* fast path: pairwise-distinct flip-invariant column weights already
     * order the qubits completely */
    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        int64_t ones = 0;
        for (j = 0; j < m; j++)
            ones += (idx[j] >> shift) & 1;
        weights[q] = 2 * ones <= m ? ones : m - ones;
    }
    for (q = 0; q < n && distinct; q++)
        for (p = q + 1; p < n; p++)
            if (weights[p] == weights[q]) {
                distinct = 0;
                break;
            }
    if (distinct) {
        rows = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(int));
        if (rows == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (q = 0; q < n; q++) {  /* insertion sort by weight */
            int at = q;
            while (at > 0 && weights[rows[at - 1]] > weights[q]) {
                rows[at] = rows[at - 1];
                at--;
            }
            rows[at] = q;
        }
        *out = rows;
        return 1;
    }
    /* per-qubit signature: commutative hash of the column's |amp|
     * multiset, flip-normalized (the smaller of the two column sums) */
    absamp = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(double));
    pairs = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(ij_pair));
    if (absamp == NULL || pairs == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (j = 0; j < m; j++) {
        absamp[j] = fabs(qamp[j]);
        total_mix += mix_a(dbl_bits(absamp[j]));
    }
    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        uint64_t colsum = 0, flip;
        for (j = 0; j < m; j++)
            if ((idx[j] >> shift) & 1)
                colsum += mix_a(dbl_bits(absamp[j]));
        flip = total_mix - colsum;
        sig[q] = colsum < flip ? colsum : flip;
        ct[q].key = sig[q];
        ct[q].q = q;
    }
    qsort(ct, (size_t)n, sizeof(cell_tag), cmp_cell_tag);
    for (q = 0; q < n; q++) {
        if (q == 0 || ct[q].key != ct[q - 1].key) {
            int size;
            cell_start[ncells++] = q;
            for (size = 1; q + size < n && ct[q + size].key == ct[q].key;
                    size++)
                product = sat_mul(product, size + 1);
        }
    }
    small = product <= perm_cap;
    if (small)
        est = sat_mul(sat_mul(product, num_heavy), m);
    if (n > 2 && (!small || est > REFINE_WORK_LIMIT) && product > 1) {
        /* iterated pairwise refinement (Python: kernel._wl_refine) */
        if (refine_cells(nobj, n, idx, absamp, m, sig, ct) < 0)
            goto fail;
        qsort(ct, (size_t)n, sizeof(cell_tag), cmp_cell_tag);
        ncells = 0;
        for (q = 0; q < n; q++)
            if (q == 0 || ct[q].key != ct[q - 1].key)
                cell_start[ncells++] = q;
    }
    cell_start[ncells] = n;

    probe = !small || est > REFINE_WORK_LIMIT / 2;
    for (c = 0; c < ncells; c++) {
        int k = cell_start[c + 1] - cell_start[c], i;
        int64_t budget, count;
        int *perm;
        opt_off[c] = opt_len;
        if (grow_ints(&opts, &opt_cap, opt_len + k) < 0)
            goto fail;
        for (i = 0; i < k; i++)
            opts[opt_len + i] = ct[cell_start[c] + i].q;
        opt_cnt[c] = 1;
        if (k == 1)
            goto next_cell;
        /* enumerating a symmetric cell is harmless (the orbit hash
         * deduplicates equivalent orderings), so the exact-symmetry probe
         * only runs when the cube would be expensive */
        if (probe && cell_symmetric_core(n, idx, qamp, m, opts + opt_len,
                                         k, pairs))
            goto next_cell;
        budget = perm_cap >= 0 ? perm_cap / total : 0;
        if (budget < 1)
            budget = 1;
        for (count = 1; count < budget; count++) {
            if (grow_ints(&opts, &opt_cap, opt_len + (count + 1) * k) < 0)
                goto fail;
            perm = opts + opt_len + count * k;
            memcpy(perm, perm - k, (size_t)k * sizeof(int));
            if (!next_perm(perm, k))
                break;
        }
        opt_cnt[c] = (Py_ssize_t)count;
        total *= count;
        multi = 1;
next_cell:
        opt_len += opt_cnt[c] * k;
    }

    if (!multi) {
        nrows = 1;
    }
    else {
        nrows = perm_cap < total ? perm_cap : total;
        if (nrows < 1)
            nrows = 1;
    }
    rows = PyMem_Malloc((size_t)(nrows * n) * sizeof(int));
    if (rows == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    {
        /* iter_product order: the last cell varies fastest */
        Py_ssize_t sel[64], r;
        memset(sel, 0, sizeof(sel));
        for (r = 0; r < nrows; r++) {
            int *row = rows + r * n, pos = 0;
            for (c = 0; c < ncells; c++) {
                int k = cell_start[c + 1] - cell_start[c];
                memcpy(row + pos, opts + opt_off[c] + sel[c] * k,
                       (size_t)k * sizeof(int));
                pos += k;
            }
            for (c = ncells - 1; c >= 0; c--) {
                if (++sel[c] < opt_cnt[c])
                    break;
                sel[c] = 0;
            }
        }
    }
    PyMem_Free(absamp);
    PyMem_Free(pairs);
    PyMem_Free(opts);
    *out = rows;
    return nrows;
fail:
    PyMem_Free(absamp);
    PyMem_Free(pairs);
    PyMem_Free(opts);
    PyMem_Free(rows);
    return -1;
}

/* ------------------------------------------------------------------ */
/* canon_key(ps, pu2, tie_cap, perm_cap, u2_data, automorphisms,       */
/*           timed, scale) -> (key, u2_miss, hashing_seconds)          */
/* ------------------------------------------------------------------ */

/* A new CanonKey(n, h, full), untracked like CanonKey.__init__ makes
 * it. */
static PyObject *
new_canon_key_h(PyObject *nobj, PyObject *h, PyObject *full)
{
    PyObject *obj = ck_type->tp_alloc(ck_type, 0);
    if (obj == NULL)
        return NULL;
    CK_SLOT(obj, CK_N) = Py_NewRef(nobj);
    CK_SLOT(obj, CK_H) = Py_NewRef(h);
    CK_SLOT(obj, CK_FULL) = Py_NewRef(full);
    PyObject_GC_UnTrack(obj);
    return obj;
}

/* A new CanonKey(n, low, full) of an orbit hash's low 64 bits. */
static PyObject *
new_canon_key(PyObject *nobj, uint64_t low, PyObject *full)
{
    PyObject *obj, *h = PyLong_FromUnsignedLongLong(low);
    if (h == NULL)
        return NULL;
    obj = new_canon_key_h(nobj, h, full);
    Py_DECREF(h);
    return obj;
}

static double
monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* The state's column counts, memoized on it as PackedState.column_counts
 * does (an untracked list of ints). */
static int
state_counts(PyObject *ps, int n, const int64_t *idx, Py_ssize_t m,
             int64_t *counts)
{
    PyObject *lst = PS_SLOT(ps, PS_COUNTS);
    int q;
    if (lst != NULL && PyList_Check(lst) && PyList_GET_SIZE(lst) == n) {
        for (q = 0; q < n; q++) {
            counts[q] = PyLong_AsLongLong(PyList_GET_ITEM(lst, q));
            if (counts[q] == -1 && PyErr_Occurred())
                return -1;
        }
        return 0;
    }
    lst = counts_list(n, idx, m, counts);
    if (lst == NULL)
        return -1;
    Py_XSETREF(PS_SLOT(ps, PS_COUNTS), lst);
    return 0;
}

/* The automorphism orderings (a list of n-lists) as rows of ints. */
static Py_ssize_t
parse_orderings(PyObject *seq, int n, int **out)
{
    PyObject *outer = PySequence_Fast(seq, "orderings must be a sequence");
    Py_ssize_t K, k;
    int i, *rows;
    *out = NULL;
    if (outer == NULL)
        return -1;
    K = PySequence_Fast_GET_SIZE(outer);
    rows = PyMem_Malloc((size_t)(K * n + 1) * sizeof(int));
    if (K < 1 || rows == NULL) {
        if (rows == NULL)
            PyErr_NoMemory();
        else
            PyErr_SetString(PyExc_ValueError, "canon_key: no orderings");
        goto fail;
    }
    for (k = 0; k < K; k++) {
        PyObject *perm = PySequence_Fast(PySequence_Fast_GET_ITEM(outer, k),
                                         "ordering must be a sequence");
        if (perm == NULL)
            goto fail;
        if (PySequence_Fast_GET_SIZE(perm) != n) {
            Py_DECREF(perm);
            PyErr_SetString(PyExc_ValueError,
                            "canon_key: ordering length != n");
            goto fail;
        }
        for (i = 0; i < n; i++) {
            long q = PyLong_AsLong(PySequence_Fast_GET_ITEM(perm, i));
            if ((q == -1 && PyErr_Occurred()) || q < 0 || q >= n) {
                Py_DECREF(perm);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "canon_key: ordering entry out of range");
                goto fail;
            }
            rows[k * n + i] = (int)q;
        }
        Py_DECREF(perm);
    }
    Py_DECREF(outer);
    *out = rows;
    return K;
fail:
    Py_DECREF(outer);
    PyMem_Free(rows);
    return -1;
}

/* One whole CanonContext._compute at the U2 / PU2 levels, on a state's
 * rows (idx, amp, qamp: m entries; counts: the column counts of idx):
 * pin separable qubits (requantizing when anything was pinned), the U(2)
 * orbit hash and, at PU2 on a miss in u2_data (the U(2)-class tier's
 * dict), the candidate orderings and the full orbit hash.  The
 * orderings are the K rows of autos when given, else those of the list
 * autos_obj (automorphisms) when it is not None, else enumerated.
 * arena: 10m + 1 int64 slots of scratch.  Sets *key_out (a new
 * reference) and *miss_out (a new reference to the U(2) hash on a tier
 * miss, else NULL; the caller updates the tier), and adds the
 * orbit-hash seconds to *hash_s when timed.  Returns 0, or -1 with an
 * exception set. */
static int
canon_core(PyObject *nobj, int n, const int64_t *idx, const double *amp,
           const double *qamp, Py_ssize_t m, const int64_t *counts, int pu2,
           long tie_cap, Py_ssize_t perm_cap, PyObject *u2_data,
           const int *autos, Py_ssize_t nautos, PyObject *autos_obj,
           int timed, double scale, int64_t *arena, PyObject **key_out,
           PyObject **miss_out, double *hash_s)
{
    PyObject *u2 = NULL, *key = NULL;
    int i, missed = 0, rc = -1, *owned = NULL;
    const int *orders = NULL;
    Py_ssize_t pm, j, H, K, cap;
    double t0 = 0.0;
    int64_t *pidx, *scratch_i, *hp;
    double *pamp, *pq, *scratch_a;
    const int64_t *kidx;
    const double *kq;
    ia_pair *pairs;
    uint64_t *rows = NULL, ua, ub;

    *key_out = *miss_out = NULL;
    cap = tie_cap > 1 ? (Py_ssize_t)tie_cap : 1;
    /* the arena's 8-byte slots: pidx[m], pamp[m], pq[m], scratch_i[2m],
     * scratch_a[2m], pairs[m] (two slots each), hp[m] */
    pidx = arena;
    pamp = (double *)(pidx + m);
    pq = pamp + m;
    scratch_i = (int64_t *)(pq + m);
    scratch_a = (double *)(scratch_i + 2 * m);
    pairs = (ia_pair *)(scratch_a + 2 * m);
    hp = (int64_t *)(pairs + m);
    memcpy(pidx, idx, (size_t)m * 8);
    memcpy(pamp, amp, (size_t)m * 8);
    pm = m;
    if (pin_core(n, pidx, pamp, &pm, counts, scratch_i, scratch_a, pairs)) {
        for (j = 0; j < pm; j++) {
            double qv = rint(pamp[j] * scale) / scale;
            if (qv == 0.0)
                qv = 0.0;  /* normalize -0.0 */
            pq[j] = qv;
        }
        kidx = pidx;
        kq = pq;
    }
    else {
        kidx = idx;
        kq = qamp;
    }

    /* the U(2) orbit: X-translations of the identity ordering */
    if (timed)
        t0 = monotonic_seconds();
    H = heavy_positions(kq, pm, cap, hp);
    if (orbit_totals((const uint64_t *)kidx, 1, pm, hp, H, kq, &ua, &ub) < 0)
        goto done;
    if (timed)
        *hash_s += monotonic_seconds() - t0;
    u2 = u128_long(ua, ub);
    if (u2 == NULL)
        goto done;
    if (!pu2) {
        key = new_canon_key(nobj, ub, u2);
        goto finish;
    }
    key = PyDict_GetItemWithError(u2_data, u2);
    if (key != NULL) {
        Py_INCREF(key);
        goto finish;
    }
    if (PyErr_Occurred())
        goto done;
    missed = 1;
    if (autos != NULL) {
        K = nautos;
        orders = autos;
    }
    else {
        K = autos_obj != Py_None ? parse_orderings(autos_obj, n, &owned)
            : orderings_core(nobj, n, kidx, kq, pm, perm_cap, H, &owned);
        orders = owned;
    }
    if (K < 0)
        goto done;
    if (K == 1) {
        for (i = 0; i < n && orders[i] == i; i++)
            ;
        if (i == n) {
            /* the identity ordering's candidate set IS the U(2) orbit */
            key = new_canon_key(nobj, ub, u2);
            goto finish;
        }
    }
    rows = PyMem_Malloc((size_t)(K * pm + 1) * sizeof(uint64_t));
    if (rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (timed)
        t0 = monotonic_seconds();
    for (j = 0; j < K; j++)
        permute_row(kidx, pm, n, orders + j * n, rows + j * pm);
    if (orbit_totals(rows, K, pm, hp, H, kq, &ua, &ub) < 0)
        goto done;
    if (timed)
        *hash_s += monotonic_seconds() - t0;
    {
        PyObject *full = u128_long(ua, ub);
        if (full == NULL)
            goto done;
        key = new_canon_key(nobj, ub, full);
        Py_DECREF(full);
    }
finish:
    if (key == NULL)
        goto done;
    *key_out = key;
    key = NULL;
    if (missed) {
        *miss_out = u2;
        u2 = NULL;
    }
    rc = 0;
done:
    Py_XDECREF(key);
    Py_XDECREF(u2);
    PyMem_Free(owned);
    PyMem_Free(rows);
    return rc;
}

/* canon_key(): canon_core on a PackedState's rows, its column counts
 * memoized on it.  Returns the key, the U(2) hash on a tier miss (None
 * on a hit or at U2) and the orbit-hash seconds when timed (else
 * None). */
static PyObject *
fc_canon_key(PyObject *self, PyObject *args)
{
    PyObject *ps, *u2_data, *autos, *nobj, *key = NULL, *miss = NULL;
    PyObject *secs = NULL, *res = NULL;
    int pu2, timed, n, nbuf = 0;
    long tie_cap;
    Py_ssize_t perm_cap, m;
    double scale, hash_s = 0.0;
    Py_buffer idx_b, amp_b, qamp_b;
    Py_buffer *bufs[3] = {&idx_b, &amp_b, &qamp_b};
    int64_t counts[64], *arena = NULL;

    if (!PyArg_ParseTuple(args, "OplnOOpd", &ps, &pu2, &tie_cap, &perm_cap,
                          &u2_data, &autos, &timed, &scale))
        return NULL;
    if (ps_type == NULL || ck_type == NULL || refine_fn == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "canon_key: bind_kernel() was not called");
        return NULL;
    }
    if (!PyObject_TypeCheck(ps, ps_type) ||
            (pu2 && !PyDict_Check(u2_data))) {
        PyErr_SetString(PyExc_TypeError, "canon_key: bad argument types");
        return NULL;
    }
    nobj = PS_SLOT(ps, PS_N);
    n = nobj == NULL ? -1 : (int)PyLong_AsLong(nobj);
    if (n < 0 || n > 62) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "canon_key: bad width");
        return NULL;
    }
    {
        PyObject *objs[3] = {PS_SLOT(ps, PS_IDX), PS_SLOT(ps, PS_AMP),
                             PS_SLOT(ps, PS_QAMP)};
        for (nbuf = 0; nbuf < 3; nbuf++) {
            if (objs[nbuf] == NULL) {
                PyErr_SetString(PyExc_ValueError, "canon_key: unset slot");
                goto done;
            }
            if (get_buf(objs[nbuf], bufs[nbuf], 0) < 0)
                goto done;
        }
    }
    m = idx_b.len / 8;
    if (state_counts(ps, n, (const int64_t *)idx_b.buf, m, counts) < 0)
        goto done;
    arena = PyMem_Malloc((size_t)(10 * m + 1) * sizeof(int64_t));
    if (arena == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (canon_core(nobj, n, (const int64_t *)idx_b.buf,
                   (const double *)amp_b.buf, (const double *)qamp_b.buf, m,
                   counts, pu2, tie_cap, perm_cap, u2_data, NULL, 0, autos,
                   timed, scale, arena, &key, &miss, &hash_s) < 0)
        goto done;
    if (timed) {
        secs = PyFloat_FromDouble(hash_s);
        if (secs == NULL)
            goto done;
    }
    res = PyTuple_Pack(3, key, miss != NULL ? miss : Py_None,
                       secs != NULL ? secs : Py_None);
done:
    Py_XDECREF(key);
    Py_XDECREF(miss);
    Py_XDECREF(secs);
    PyMem_Free(arena);
    while (nbuf > 0)
        PyBuffer_Release(bufs[--nbuf]);
    return res;
}

/* A*'s class tier reads and extends U64Maps (defined below) */
typedef struct {
    uint64_t key;
    PyObject *keyobj;  /* original Python int (dict-compatible keys()) */
    PyObject *val;     /* NULL = tombstone */
} u64_entry;

typedef struct {
    PyObject_HEAD
    u64_entry *entries;      /* append-only log, order = insertion */
    Py_ssize_t nentries, cap_entries, live;
    Py_ssize_t *index;       /* slot -> entry idx; -1 empty, -2 dummy */
    size_t mask, fill;       /* fill = used + tombstoned slots */
} U64MapObject;

static PyTypeObject U64MapType;
static int u64map_set(U64MapObject *self, uint64_t key, PyObject *keyobj,
                      PyObject *val);
static PyObject *u64map_lookup(U64MapObject *self, uint64_t key);

/* ------------------------------------------------------------------ */
/* OpenList: A*'s open list, children native until popped              */
/* ------------------------------------------------------------------ */

/* The open list of one A* run; its Python twin is astar._OpenList (a
 * heapq list, the g_pushed dict, astar._push_children and the class tier
 * of its pop()).
 *
 * expand() runs one expansion through expand_children.  Per child: the
 * exact-state tier (the lowest g pushed per state, keyed by the child's
 * quantized payload, its hash the pool's and its key compared byte for
 * byte), the heuristic (h_of None: the default ceil(k/2) bound on the
 * child's rows; any other heuristic gets the child interned into the
 * pool first and is called back), the incumbent prune, and a heap entry
 * ordered as heapq orders the twin's (f, -g, tiebreak, g + h, state,
 * prev, move) tuples.  The parent's rows are the tier entry pop() just
 * returned, and its CX moves come from the cx_of callback once per
 * pattern of its columns (which hold a 0, which a 1), as
 * kernel._cx_moves_entry memoizes them.  The heap runs heapq's own
 * siftdown and siftup, so its array order equals the twin's list.
 *
 * pop() runs Algorithm 1's class tier on the popped child's rows: the
 * goal test on the tier's entangled count, the canonical key
 * (CanonContext.key: its memo, then canon_core and the U(2)-class tier
 * on a miss, with the context's counters), best_g and, under an
 * incumbent, the unconditional transposition entries.  A child stays
 * rows in the tier's arena until pop() returns it: only then is it
 * interned into the run's pool, and only then is a merge's MergeMove
 * built.  Most children are pushed and never popped, or popped and
 * pruned by their class, and they cost no Python objects.  The memo's
 * and best_g's U64Map primaries are read and extended in place; a
 * 64-bit spill, an eviction sweep or a memo of another kind goes
 * through the container's own Python methods.
 *
 * The object holds kernel objects (states, moves), the pool, the move
 * list callback, a patched hash function and the run's class-tier
 * containers, none of which refers back to it, so it stays out of the
 * cyclic collector. */

/* hash(bytes) of a buffer, without building the bytes object */
#if PY_VERSION_HEX >= 0x030E0000
#define HASH_BYTES(p, len) Py_HashBuffer((p), (len))
#else
#if PY_VERSION_HEX >= 0x030D0000
/* 3.13 still exports it, but declares it in an internal header */
PyAPI_FUNC(Py_hash_t) _Py_HashBytes(const void *, Py_ssize_t);
#endif
#define HASH_BYTES(p, len) _Py_HashBytes((p), (len))
#endif

typedef struct {
    double f, u;           /* weighted and unweighted g + h */
    uint64_t tie;
    long g;
    Py_ssize_t child;      /* its tier entry */
    PyObject *prev;        /* the expanded parent; NULL: the start */
    PyObject *move;        /* an X or CX move; NULL: a merge (below) */
    double theta;
    int64_t cmask, cval;
    int target;
} ol_entry;

typedef struct {
    int64_t *data;         /* arena rows: idx[m], then qamp[m] and amp[m] */
    Py_ssize_t m;
    uint64_t hash;         /* the pool hash of the payload (low 64 bits) */
    long g;                /* the lowest g pushed */
    int nent;              /* entangled count; -1: not computed */
    uint64_t ent;          /* the entangled qubits (bit q: qubit q) */
    PyObject *state;       /* the interned state, once materialized */
} ol_child;

/* cx_of's entry (moves, controls, phases, targets) for one column
 * pattern: h0 has bit q when qubit q's column holds a 0, h1 when it
 * holds a 1 */
typedef struct {
    uint64_t h0, h1;
    PyObject *entry;
    Py_buffer bufs[3];
} ol_cx;

typedef struct {
    PyObject_HEAD
    PyObject *pool, *table, *hash_fn, *cx_of, *x_moves, *nobj;
    int n, max_controls, have_nbr;
    int64_t nbr[64];
    double weight, atol, rtol, scale;
    ol_entry *heap;
    Py_ssize_t len, cap;
    uint64_t ties;
    ol_child *kids;        /* the exact-state tier, in insertion order */
    Py_ssize_t nkids, kcap;
    Py_ssize_t *index;     /* open addressing over kids; -1 = empty */
    size_t imask;
    int64_t **blocks;      /* the arena */
    Py_ssize_t nblocks, bcap;
    int64_t *cur;
    size_t left;
    expand_scratch es;
    char *pbuf;            /* payload scratch */
    Py_ssize_t pcap;
    int64_t *ent_i;        /* entangled_core scratch */
    double *ent_a;
    Py_ssize_t ecap;
    Py_ssize_t last;       /* the tier entry pop() returned last, or -1 */
    ol_cx **cx;            /* cx_of's entries met so far */
    Py_ssize_t ncx, cxcap;
    /* the class tier */
    PyObject *canon;       /* the run's CanonContext */
    PyObject *best_g;      /* a HashKeyedMap: class -> lowest g expanded */
    PyObject *transposition;  /* a TranspositionTable, or NULL */
    int level;             /* CanonLevel: 0 NONE, 1 U2, 2 PU2 */
    long tie_cap;
    Py_ssize_t perm_cap;
    int *autos;            /* PU2 automorphism orderings, or NULL */
    Py_ssize_t nautos;
    int64_t *carena;       /* canon_core scratch */
    Py_ssize_t carena_cap;
} OpenListObject;

#define OL_BLOCK_WORDS 65536

static inline const double *
child_qamp(const ol_child *c)
{
    return (const double *)(c->data + c->m);
}

static inline const double *
child_amp(const ol_child *c)
{
    return (const double *)(c->data + 2 * c->m);
}

/* heapq's order on (f, -g, tie) */
static inline int
ol_lt(const ol_entry *a, const ol_entry *b)
{
    if (a->f != b->f)
        return a->f < b->f;
    if (a->g != b->g)
        return a->g > b->g;
    return a->tie < b->tie;
}

/* heapq._siftdown */
static void
ol_siftdown(ol_entry *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    ol_entry item = heap[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (!ol_lt(&item, &heap[parentpos]))
            break;
        heap[pos] = heap[parentpos];
        pos = parentpos;
    }
    heap[pos] = item;
}

/* heapq._siftup */
static void
ol_siftup(ol_entry *heap, Py_ssize_t endpos, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, childpos = 2 * pos + 1;
    ol_entry item = heap[pos];
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !ol_lt(&heap[childpos], &heap[rightpos]))
            childpos = rightpos;
        heap[pos] = heap[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    heap[pos] = item;
    ol_siftdown(heap, startpos, pos);
}

static int
ol_heappush(OpenListObject *ol, const ol_entry *e)
{
    if (ol->len == ol->cap) {
        Py_ssize_t cap = ol->cap ? 2 * ol->cap : 256;
        ol_entry *grown = PyMem_Realloc(ol->heap,
                                        (size_t)cap * sizeof(ol_entry));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ol->heap = grown;
        ol->cap = cap;
    }
    ol->heap[ol->len++] = *e;
    ol_siftdown(ol->heap, 0, ol->len - 1);
    return 0;
}

static void
ol_heappop(OpenListObject *ol, ol_entry *out)
{
    ol_entry last = ol->heap[--ol->len];
    if (ol->len == 0) {
        *out = last;
        return;
    }
    *out = ol->heap[0];
    ol->heap[0] = last;
    ol_siftup(ol->heap, ol->len, 0);
}

static int64_t *
ol_arena(OpenListObject *ol, size_t words)
{
    int64_t *p;
    if (words > ol->left) {
        size_t size = words > OL_BLOCK_WORDS ? words : OL_BLOCK_WORDS;
        int64_t *block;
        if (ol->nblocks == ol->bcap) {
            Py_ssize_t cap = ol->bcap ? 2 * ol->bcap : 16;
            int64_t **grown = PyMem_Realloc(ol->blocks, (size_t)cap
                                            * sizeof(int64_t *));
            if (grown == NULL) {
                PyErr_NoMemory();
                return NULL;
            }
            ol->blocks = grown;
            ol->bcap = cap;
        }
        block = PyMem_Malloc(size * sizeof(int64_t));
        if (block == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        ol->blocks[ol->nblocks++] = block;
        ol->cur = block;
        ol->left = size;
    }
    p = ol->cur;
    ol->cur += words;
    ol->left -= words;
    return p;
}

/* Serialize the rows into ol->pbuf (as build_payload does) and set
 * *hash to the pool's hash of that payload: hash(payload), or the
 * patched state_hash64's value. */
static int
ol_hash(OpenListObject *ol, const int64_t *idx, const double *qamp,
        Py_ssize_t m, uint64_t *hash)
{
    Py_ssize_t len = 2 + 16 * m;
    if (len > ol->pcap) {
        Py_ssize_t cap = len > 2 * ol->pcap ? len : 2 * ol->pcap;
        char *grown = PyMem_Realloc(ol->pbuf, (size_t)cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ol->pbuf = grown;
        ol->pcap = cap;
    }
    ol->pbuf[0] = (char)(ol->n & 0xff);
    ol->pbuf[1] = (char)((ol->n >> 8) & 0xff);
    memcpy(ol->pbuf + 2, idx, (size_t)m * 8);
    memcpy(ol->pbuf + 2 + 8 * m, qamp, (size_t)m * 8);
    if (ol->hash_fn != NULL) {
        PyObject *payload = PyBytes_FromStringAndSize(ol->pbuf, len), *hv;
        if (payload == NULL)
            return -1;
        hv = PyObject_CallOneArg(ol->hash_fn, payload);
        Py_DECREF(payload);
        if (hv == NULL)
            return -1;
        *hash = PyLong_AsUnsignedLongLongMask(hv);
        Py_DECREF(hv);
        return *hash == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
    }
    *hash = (uint64_t)HASH_BYTES(ol->pbuf, len);
    return 0;
}

static int
ol_grow_index(OpenListObject *ol)
{
    size_t mask = ol->imask * 2 + 1, slot;
    Py_ssize_t id, *index = PyMem_Malloc((mask + 1) * sizeof(Py_ssize_t));
    if (index == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (slot = 0; slot <= mask; slot++)
        index[slot] = -1;
    for (id = 0; id < ol->nkids; id++) {
        slot = (size_t)ol->kids[id].hash & mask;
        while (index[slot] >= 0)
            slot = (slot + 1) & mask;
        index[slot] = id;
    }
    PyMem_Free(ol->index);
    ol->index = index;
    ol->imask = mask;
    return 0;
}

/* The tier entry of the state with these rows, added (g unset, *fresh
 * = 1) when the tier has none; -1 on error. */
static Py_ssize_t
ol_find(OpenListObject *ol, const int64_t *idx, const double *amp,
        const double *qamp, Py_ssize_t m, int *fresh)
{
    uint64_t hash;
    size_t slot;
    Py_ssize_t id;
    ol_child *c;
    int64_t *data;

    if (ol_hash(ol, idx, qamp, m, &hash) < 0)
        return -1;
    slot = (size_t)hash & ol->imask;
    while ((id = ol->index[slot]) >= 0) {
        c = &ol->kids[id];
        if (c->hash == hash && c->m == m &&
                memcmp(c->data, idx, (size_t)m * 8) == 0 &&
                memcmp(c->data + m, qamp, (size_t)m * 8) == 0) {
            *fresh = 0;
            return id;
        }
        slot = (slot + 1) & ol->imask;
    }
    if (ol->nkids == ol->kcap) {
        Py_ssize_t cap = ol->kcap ? 2 * ol->kcap : 256;
        ol_child *grown = PyMem_Realloc(ol->kids,
                                        (size_t)cap * sizeof(ol_child));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ol->kids = grown;
        ol->kcap = cap;
    }
    data = ol_arena(ol, (size_t)(3 * m + 1));
    if (data == NULL)
        return -1;
    memcpy(data, idx, (size_t)m * 8);
    memcpy(data + m, qamp, (size_t)m * 8);
    memcpy(data + 2 * m, amp, (size_t)m * 8);
    id = ol->nkids++;
    c = &ol->kids[id];
    c->data = data;
    c->m = m;
    c->hash = hash;
    c->g = 0;
    c->nent = -1;
    c->ent = 0;
    c->state = NULL;
    ol->index[slot] = id;
    *fresh = 1;
    if ((size_t)ol->nkids * 2 > ol->imask && ol_grow_index(ol) < 0)
        return -1;
    return id;
}

/* Compute the child's entangled set from its rows (the tier keeps it). */
static int
ol_entangled(OpenListObject *ol, ol_child *c, const int64_t *idx_rows,
             const double *amp_rows)
{
    int ent[64], count, j;
    Py_ssize_t want = 2 * c->m + 1;
    if (want > ol->ecap) {
        int64_t *gi = PyMem_Realloc(ol->ent_i, (size_t)want
                                    * sizeof(int64_t));
        double *ga;
        if (gi != NULL)
            ol->ent_i = gi;
        ga = gi != NULL ? PyMem_Realloc(ol->ent_a, (size_t)want
                                        * sizeof(double)) : NULL;
        if (ga == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ol->ent_a = ga;
        ol->ecap = want;
    }
    count = entangled_core(ol->n, idx_rows, amp_rows, c->m, ol->ent_i,
                           ol->ent_a, ent);
    c->nent = count;
    c->ent = 0;
    for (j = 0; j < count; j++)
        c->ent |= (uint64_t)1 << ent[j];
    return 0;
}

/* A tuple of the qubits set in mask, ascending, untracked. */
static PyObject *
mask_tuple(uint64_t mask, int n)
{
    int vals[64], q, count = 0;
    for (q = 0; q < n; q++)
        if ((mask >> q) & 1)
            vals[count++] = q;
    return int_tuple(vals, count);
}

/* The child's payload and its pool key, hash(payload) or the patched
 * state_hash64's value (new references; 0, or -1 with both NULL). */
static int
ol_keys(OpenListObject *ol, const ol_child *c, PyObject **payload,
        PyObject **hkey)
{
    *hkey = NULL;
    *payload = build_payload(ol->n, c->data, child_qamp(c), c->m);
    if (*payload == NULL)
        return -1;
    if (ol->hash_fn != NULL)
        *hkey = PyObject_CallOneArg(ol->hash_fn, *payload);
    else
        *hkey = PyLong_FromSsize_t((Py_ssize_t)(Py_hash_t)c->hash);
    if (*hkey == NULL) {
        Py_CLEAR(*payload);
        return -1;
    }
    return 0;
}

/* The child's interned state (borrowed): interned into the run's pool on
 * the first call.  The state gets the entangled set the tier holds, as
 * num_entangled_packed memoizes it on the state. */
static PyObject *
ol_state(OpenListObject *ol, ol_child *c)
{
    PyObject *payload, *hkey, *state = c->state;
    pool_ctx pc;

    if (state == NULL) {
        if (ol_keys(ol, c, &payload, &hkey) < 0)
            return NULL;
        pc.table = ol->table;
        pc.hash_fn = ol->hash_fn;
        pc.nobj = ol->nobj;
        pc.n = ol->n;
        pc.interned = pc.hits = pc.collisions = 0;
        state = pool_intern_keyed(&pc, payload, hkey, c->data, child_amp(c),
                                  child_qamp(c), c->m);
        Py_DECREF(hkey);
        Py_DECREF(payload);
        if (state == NULL)
            return NULL;
        if (pool_count(ol->pool, &pc) < 0) {
            Py_DECREF(state);
            return NULL;
        }
        c->state = state;
    }
    if (c->nent >= 0 && PS_SLOT(state, PS_ENTANGLED) == Py_None) {
        PyObject *tup = mask_tuple(c->ent, ol->n);
        if (tup == NULL)
            return NULL;
        Py_SETREF(PS_SLOT(state, PS_ENTANGLED), tup);
    }
    return state;
}

/* The move of an entry (a new reference; None for the start). */
static PyObject *
ol_move(OpenListObject *ol, const ol_entry *e)
{
    if (e->prev == NULL)
        return Py_NewRef(Py_None);
    if (e->move != NULL)
        return Py_NewRef(e->move);
    return merge_move_of(ol->n, e->target, e->theta, e->cmask, e->cval);
}

/* One pop() call's class-tier counts, flushed into the CanonContext,
 * its memo and its U(2)-class tier on the way out, and its seconds: the
 * key lookups and computations, and their orbit hashing. */
typedef struct {
    Py_ssize_t hits, misses;              /* CanonContext.hits / misses */
    Py_ssize_t store_hits, store_misses;  /* the memo's, looked up here */
    Py_ssize_t u2_hits, u2_misses, full;
    int timed;
    double key_s, hash_s;
} ol_tier;

static int
ol_tier_flush(OpenListObject *ol, const ol_tier *t)
{
    PyObject *canon = ol->canon;
    if (slot_add(canon, cc_off[CC_HITS], t->hits) < 0 ||
            slot_add(canon, cc_off[CC_MISSES], t->misses) < 0 ||
            slot_add(canon, cc_off[CC_FULL], t->full) < 0)
        return -1;
    if (t->store_hits || t->store_misses) {
        PyObject *memo = OBJ_SLOT(canon, cc_off[CC_MEMO]);
        if (slot_add(memo, hs_off[HS_HITS], t->store_hits) < 0 ||
                slot_add(memo, hs_off[HS_MISSES], t->store_misses) < 0)
            return -1;
    }
    if (t->u2_hits || t->u2_misses) {
        PyObject *u2c = OBJ_SLOT(canon, cc_off[CC_U2]);
        if (slot_add(u2c, bc_off[BC_HITS], t->u2_hits) < 0 ||
                slot_add(u2c, bc_off[BC_MISSES], t->u2_misses) < 0)
            return -1;
    }
    return 0;
}

/* Is b the child's payload (n, then its idx and qamp rows)? */
static int
ol_is_payload(const OpenListObject *ol, const ol_child *c, PyObject *b)
{
    const char *p;
    if (!PyBytes_CheckExact(b) || PyBytes_GET_SIZE(b) != 2 + 16 * c->m)
        return 0;
    p = PyBytes_AS_STRING(b);
    return p[0] == (char)(ol->n & 0xff) &&
        p[1] == (char)((ol->n >> 8) & 0xff) &&
        memcmp(p + 2, c->data, (size_t)c->m * 16) == 0;
}

/* The int in obj's slot at offset off, as a Py_ssize_t (-1 on error). */
static Py_ssize_t
slot_size(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = OBJ_SLOT(obj, off);
    if (v == NULL || !PyLong_Check(v)) {
        PyErr_SetString(PyExc_TypeError, "a cap is not an int");
        return -1;
    }
    return PyLong_AsSsize_t(v);
}

/* The child's canonical key computed from its rows (a new reference):
 * CanonContext._compute, with the U(2)-class tier's bookkeeping (a full
 * tier runs BoundedCache.put's own eviction sweep).  *payload and *hkey
 * are built here when still NULL. */
static PyObject *
ol_compute_key(OpenListObject *ol, const ol_child *c, ol_tier *t,
               PyObject **payload, PyObject **hkey)
{
    PyObject *u2c = NULL, *u2_data = NULL, *key, *miss;
    int64_t counts[64];
    Py_ssize_t need = 10 * c->m + 1, cap;
    int pu2 = ol->level == 2, rc;

    if (ol->level == 0) {  /* NONE: CanonKey(n, hash64, payload) */
        if (*payload == NULL && ol_keys(ol, c, payload, hkey) < 0)
            return NULL;
        return new_canon_key_h(ol->nobj, *hkey, *payload);
    }
    if (need > ol->carena_cap) {
        int64_t *grown = PyMem_Realloc(ol->carena, (size_t)need
                                       * sizeof(int64_t));
        if (grown == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        ol->carena = grown;
        ol->carena_cap = need;
    }
    if (pu2) {
        u2c = OBJ_SLOT(ol->canon, cc_off[CC_U2]);
        if (u2c == NULL || !PyObject_TypeCheck(u2c, bc_type) ||
                (u2_data = OBJ_SLOT(u2c, bc_off[BC_DATA])) == NULL ||
                !PyDict_Check(u2_data)) {
            PyErr_SetString(PyExc_TypeError,
                            "OpenList: the U(2)-class tier is not a cache");
            return NULL;
        }
    }
    column_counts(ol->n, c->data, c->m, counts);
    if (canon_core(ol->nobj, ol->n, c->data, child_amp(c), child_qamp(c),
                   c->m, counts, pu2, ol->tie_cap, ol->perm_cap, u2_data,
                   ol->autos, ol->nautos, Py_None, t->timed, ol->scale,
                   ol->carena, &key, &miss, &t->hash_s) < 0)
        return NULL;
    if (!pu2)
        return key;
    if (miss == NULL) {
        t->u2_hits++;
        return key;
    }
    t->u2_misses++;
    t->full++;
    cap = slot_size(u2c, bc_off[BC_CAP]);
    if (cap < 0)
        rc = -1;
    else if (PyDict_GET_SIZE(u2_data) < cap)
        rc = PyDict_SetItem(u2_data, miss, key);
    else {
        PyObject *r = PyObject_CallMethodObjArgs(u2c, str_put, miss, key,
                                                 NULL);
        rc = r == NULL ? -1 : 0;
        Py_XDECREF(r);
    }
    Py_DECREF(miss);
    if (rc < 0)
        Py_CLEAR(key);
    return key;
}

/* The child's canonical key (a new reference), as CanonContext.key finds
 * it: from the memo, else computed from the rows and stored.  A memo hit
 * bumps the entry's hit count, as HashStore.get does. */
static PyObject *
ol_class_key(OpenListObject *ol, const ol_child *c, ol_tier *t)
{
    PyObject *memo = OBJ_SLOT(ol->canon, cc_off[CC_MEMO]);
    PyObject *primary = NULL, *payload = NULL, *hkey = NULL, *pk = NULL;
    PyObject *key = NULL, *row, *val;
    double t0 = t->timed ? monotonic_seconds() : 0.0;
    int native = 0;

    if (memo != NULL && Py_IS_TYPE(memo, hs_type)) {
        primary = OBJ_SLOT(memo, hs_off[HS_PRIMARY]);
        native = primary != NULL && Py_IS_TYPE(primary, &U64MapType);
    }
    if (native) {
        row = u64map_lookup((U64MapObject *)primary, c->hash);
        if (row == NULL) {
            t->store_misses++;
            t->misses++;
            goto compute;
        }
        if (PyList_CheckExact(row) && PyList_GET_SIZE(row) == 3 &&
                ol_is_payload(ol, c, PyList_GET_ITEM(row, 0))) {
            long long count = PyLong_AsLongLong(PyList_GET_ITEM(row, 2));
            PyObject *bumped;
            if (count == -1 && PyErr_Occurred())
                goto done;
            bumped = PyLong_FromLongLong(count + 1);
            if (bumped == NULL)
                goto done;
            key = Py_NewRef(PyList_GET_ITEM(row, 1));
            PyList_SetItem(row, 2, bumped);
            t->store_hits++;
            t->hits++;
            goto done;
        }
        native = 0;  /* another state holds the hash: the memo's spill */
    }
    if (ol_keys(ol, c, &payload, &hkey) < 0)
        goto done;
    pk = PyObject_CallFunctionObjArgs((PyObject *)pk_type, hkey, payload,
                                      NULL);
    val = pk != NULL ? PyObject_CallMethodOneArg(memo, str_get, pk) : NULL;
    if (val == NULL)
        goto done;
    if (val != Py_None) {
        t->hits++;
        key = val;
        goto done;
    }
    Py_DECREF(val);
    t->misses++;
compute:
    key = ol_compute_key(ol, c, t, &payload, &hkey);
    if (key == NULL)
        goto done;
    if (native) {
        Py_ssize_t cap = slot_size(memo, hs_off[HS_CAP]);
        if (cap < 0)
            goto fail;
        if (((U64MapObject *)primary)->live < cap) {
            /* HashStore.put's new row [payload, value, hits], untracked
             * like the rows it makes */
            int rc;
            if (payload == NULL && ol_keys(ol, c, &payload, &hkey) < 0)
                goto fail;
            row = PyList_New(3);
            if (row == NULL)
                goto fail;
            PyList_SET_ITEM(row, 0, Py_NewRef(payload));
            PyList_SET_ITEM(row, 1, Py_NewRef(key));
            PyList_SET_ITEM(row, 2, PyLong_FromLong(0));
            PyObject_GC_UnTrack(row);
            rc = u64map_set((U64MapObject *)primary, c->hash, hkey, row);
            Py_DECREF(row);
            if (rc < 0)
                goto fail;
            goto done;
        }
    }
    /* HashStore.put: its eviction sweep, or its spill */
    if (pk == NULL) {
        if (payload == NULL && ol_keys(ol, c, &payload, &hkey) < 0)
            goto fail;
        pk = PyObject_CallFunctionObjArgs((PyObject *)pk_type, hkey,
                                          payload, NULL);
        if (pk == NULL)
            goto fail;
    }
    val = PyObject_CallMethodObjArgs(memo, str_put, pk, key, NULL);
    if (val == NULL)
        goto fail;
    Py_DECREF(val);
    goto done;
fail:
    Py_CLEAR(key);
done:
    Py_XDECREF(payload);
    Py_XDECREF(hkey);
    Py_XDECREF(pk);
    if (t->timed)
        t->key_s += monotonic_seconds() - t0;
    return key;
}

/* Is holder the key's class (holder is key or CanonKey.__eq__)? */
static int
same_class(PyObject *holder, PyObject *key)
{
    int r;
    if (holder == key)
        return 1;
    if (!Py_IS_TYPE(holder, ck_type))
        return PyObject_RichCompareBool(holder, key, Py_EQ);
    r = PyObject_RichCompareBool(CK_SLOT(holder, CK_N), CK_SLOT(key, CK_N),
                                 Py_EQ);
    if (r <= 0)
        return r;
    return PyObject_RichCompareBool(CK_SLOT(holder, CK_FULL),
                                    CK_SLOT(key, CK_FULL), Py_EQ);
}

/* best_g's U64Map primary and the key's 64-bit hash, when the key is a
 * CanonKey and the primary a U64Map; else NULL (the map's own methods
 * serve it).  NULL with an exception set on error. */
static U64MapObject *
ol_best_primary(OpenListObject *ol, PyObject *key, uint64_t *h)
{
    PyObject *primary = OBJ_SLOT(ol->best_g, hk_off[HK_PRIMARY]);
    if (primary == NULL || !Py_IS_TYPE(primary, &U64MapType) ||
            !Py_IS_TYPE(key, ck_type))
        return NULL;
    *h = PyLong_AsUnsignedLongLongMask(CK_SLOT(key, CK_H));
    if (*h == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    return (U64MapObject *)primary;
}

/* best_g.get(key): 1 with *g set, 0 when the class has no entry, -1 on
 * error.  A class whose hash another class holds goes through
 * HashKeyedMap.get (its spill). */
static int
ol_best_get(OpenListObject *ol, PyObject *key, long *g)
{
    uint64_t h;
    U64MapObject *primary = ol_best_primary(ol, key, &h);
    PyObject *entry, *v;
    int r;
    if (primary != NULL) {
        entry = u64map_lookup(primary, h);
        if (entry == NULL)
            return 0;
        if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 2) {
            PyErr_SetString(PyExc_TypeError, "OpenList: bad best_g entry");
            return -1;
        }
        r = same_class(PyTuple_GET_ITEM(entry, 0), key);
        if (r < 0)
            return -1;
        if (r) {
            *g = PyLong_AsLong(PyTuple_GET_ITEM(entry, 1));
            return *g == -1 && PyErr_Occurred() ? -1 : 1;
        }
    }
    else if (PyErr_Occurred())
        return -1;
    v = PyObject_CallMethodOneArg(ol->best_g, str_get, key);
    if (v == NULL)
        return -1;
    r = v != Py_None;
    if (r) {
        *g = PyLong_AsLong(v);
        if (*g == -1 && PyErr_Occurred())
            r = -1;
    }
    Py_DECREF(v);
    return r;
}

/* best_g.put(key, g).  A class whose hash another class holds goes
 * through HashKeyedMap.put (its spill and collision count). */
static int
ol_best_put(OpenListObject *ol, PyObject *key, long g)
{
    uint64_t h;
    U64MapObject *primary = ol_best_primary(ol, key, &h);
    PyObject *gobj, *entry, *tup, *r;
    int same = 0, rc = -1;
    if (primary == NULL && PyErr_Occurred())
        return -1;
    gobj = PyLong_FromLong(g);
    if (gobj == NULL)
        return -1;
    if (primary != NULL) {
        entry = u64map_lookup(primary, h);
        if (entry != NULL && (!PyTuple_CheckExact(entry) ||
                              PyTuple_GET_SIZE(entry) != 2)) {
            PyErr_SetString(PyExc_TypeError, "OpenList: bad best_g entry");
            goto done;
        }
        if (entry != NULL) {
            same = same_class(PyTuple_GET_ITEM(entry, 0), key);
            if (same < 0)
                goto done;
        }
        if (entry == NULL || same) {
            /* the (holder, g) tuple HashKeyedMap.put stores, untracked
             * like its members */
            tup = PyTuple_Pack(2, entry == NULL ? key
                               : PyTuple_GET_ITEM(entry, 0), gobj);
            if (tup == NULL)
                goto done;
            PyObject_GC_UnTrack(tup);
            rc = u64map_set(primary, h, CK_SLOT(key, CK_H), tup);
            Py_DECREF(tup);
            goto done;
        }
    }
    r = PyObject_CallMethodObjArgs(ol->best_g, str_put, key, gobj, NULL);
    rc = r == NULL ? -1 : 0;
    Py_XDECREF(r);
done:
    Py_DECREF(gobj);
    return rc;
}

typedef struct {
    OpenListObject *ol;
    PyObject *parent, *h_of, *cx_moves;
    const int64_t *idx;    /* the parent's rows: an X or CX child equal */
    const double *qamp;    /* to them is dropped, as successors drops it */
    Py_ssize_t m;
    long g;
    int has_ub;
    double thr;            /* ub - 1e-9 */
    Py_ssize_t pruned, prunes, generated;
} ol_visit_ctx;

/* One child of expand(): the twin of one pass of _push_children's loop. */
static int
ol_visit(void *vctx, const child_view *cv)
{
    ol_visit_ctx *vc = vctx;
    OpenListObject *ol = vc->ol;
    Py_ssize_t m = cv->m, id;
    long g2;
    int fresh;
    double hd;
    ol_child *c;
    ol_entry e;

    if (cv->kind != CHILD_MERGE && m == vc->m &&
            memcmp(cv->idx, vc->idx, (size_t)m * 8) == 0 &&
            memcmp(cv->qamp, vc->qamp, (size_t)m * 8) == 0)
        return 0;
    /* Move.cost: X 0, CX 1, a merge constants.mcry_cnot_cost */
    g2 = vc->g + (cv->kind == CHILD_X ? 0 : cv->kind == CHILD_CX ? 1
                  : cv->nctl == 0 ? 0 : 1L << cv->nctl);
    id = ol_find(ol, cv->idx, cv->amp, cv->qamp, m, &fresh);
    if (id < 0)
        return -1;
    c = &ol->kids[id];
    if (!fresh && g2 >= c->g) {
        vc->pruned++;
        return 0;
    }
    c->g = g2;
    if (vc->h_of == NULL) {
        if (c->nent < 0 && ol_entangled(ol, c, cv->idx, cv->amp) < 0)
            return -1;
        hd = (double)((c->nent + 1) / 2);
    }
    else {
        PyObject *state = ol_state(ol, c), *ho;
        if (state == NULL)
            return -1;
        ho = PyObject_CallOneArg(vc->h_of, state);
        if (ho == NULL)
            return -1;
        hd = PyFloat_AsDouble(ho);
        Py_DECREF(ho);
        if (hd == -1.0 && PyErr_Occurred())
            return -1;
    }
    if (vc->has_ub && (double)g2 + hd > vc->thr) {
        /* the admissible h proves no completion through this state
         * beats the incumbent */
        vc->prunes++;
        return 0;
    }
    e.f = (double)g2 + ol->weight * hd;
    e.u = (double)g2 + hd;
    e.tie = ol->ties++;
    e.g = g2;
    e.child = id;
    e.prev = Py_NewRef(vc->parent);
    e.target = cv->target;
    e.theta = cv->theta;
    e.cmask = cv->cmask;
    e.cval = cv->cval;
    e.move = cv->kind == CHILD_MERGE ? NULL : Py_NewRef(PyList_GET_ITEM(
        cv->kind == CHILD_X ? ol->x_moves : vc->cx_moves, cv->pos));
    if (ol_heappush(ol, &e) < 0) {
        Py_DECREF(e.prev);
        Py_XDECREF(e.move);
        return -1;
    }
    vc->generated++;
    return 0;
}

/* The rows of a PackedState, read-only. */
static int
state_bufs(PyObject *st, int n, Py_buffer *bufs)
{
    PyObject *objs[3];
    int i;
    if (!PyObject_TypeCheck(st, ps_type) || PS_SLOT(st, PS_N) == NULL ||
            PyLong_AsLong(PS_SLOT(st, PS_N)) != n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "OpenList: not a PackedState of the run's width");
        return -1;
    }
    objs[0] = PS_SLOT(st, PS_IDX);
    objs[1] = PS_SLOT(st, PS_QAMP);
    objs[2] = PS_SLOT(st, PS_AMP);
    for (i = 0; i < 3; i++) {
        if (objs[i] == NULL || get_buf(objs[i], &bufs[i], 0) < 0) {
            if (objs[i] == NULL)
                PyErr_SetString(PyExc_ValueError, "OpenList: unset slot");
            while (i > 0)
                PyBuffer_Release(&bufs[--i]);
            return -1;
        }
    }
    if (bufs[1].len != bufs[0].len || bufs[2].len != bufs[0].len) {
        for (i = 0; i < 3; i++)
            PyBuffer_Release(&bufs[i]);
        PyErr_SetString(PyExc_ValueError, "OpenList: ragged state rows");
        return -1;
    }
    return 0;
}

static int
ol_threshold(PyObject *ubo, int *has_ub, double *thr)
{
    *has_ub = ubo != Py_None;
    *thr = 0.0;
    if (*has_ub) {
        *thr = PyFloat_AsDouble(ubo);
        if (*thr == -1.0 && PyErr_Occurred())
            return -1;
        *thr -= 1e-9;  /* ub - 1e-9 */
    }
    return 0;
}

/* start(state, h, ub) -> bool: record the start at g = 0 and push it
 * unless h reaches the incumbent bound ub. */
static PyObject *
ol_start(OpenListObject *self, PyObject *args)
{
    PyObject *st, *ubo;
    double h, thr;
    int has_ub, fresh;
    Py_buffer bufs[3];
    Py_ssize_t id, m, i;
    ol_entry e;

    if (!PyArg_ParseTuple(args, "OdO", &st, &h, &ubo) ||
            ol_threshold(ubo, &has_ub, &thr) < 0 ||
            state_bufs(st, self->n, bufs) < 0)
        return NULL;
    m = bufs[0].len / 8;
    id = ol_find(self, bufs[0].buf, bufs[2].buf, bufs[1].buf, m, &fresh);
    for (i = 0; i < 3; i++)
        PyBuffer_Release(&bufs[i]);
    if (id < 0)
        return NULL;
    self->kids[id].g = 0;
    if (self->kids[id].state == NULL)
        self->kids[id].state = Py_NewRef(st);
    if (has_ub && 0.0 + h > thr)
        Py_RETURN_FALSE;
    memset(&e, 0, sizeof(e));
    e.f = 0.0 + self->weight * h;
    e.u = 0.0 + h;
    e.tie = self->ties++;
    e.child = id;
    if (ol_heappush(self, &e) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

/* The CX moves of a parent with these rows: cx_of's entry for its
 * column pattern, called back the first time the pattern is met. */
static const ol_cx *
ol_cx_moves(OpenListObject *ol, PyObject *parent, const int64_t *idx,
            Py_ssize_t m)
{
    int64_t counts[64];
    uint64_t h0 = 0, h1 = 0;
    Py_ssize_t i;
    PyObject *entry;
    ol_cx *cx;
    int q, nbuf;

    column_counts(ol->n, idx, m, counts);
    for (q = 0; q < ol->n; q++) {
        if (counts[q] < m)
            h0 |= (uint64_t)1 << q;
        if (counts[q] > 0)
            h1 |= (uint64_t)1 << q;
    }
    for (i = 0; i < ol->ncx; i++)
        if (ol->cx[i]->h0 == h0 && ol->cx[i]->h1 == h1)
            return ol->cx[i];
    if (ol->ncx == ol->cxcap) {
        Py_ssize_t cap = ol->cxcap ? 2 * ol->cxcap : 8;
        ol_cx **grown = PyMem_Realloc(ol->cx, (size_t)cap * sizeof(ol_cx *));
        if (grown == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        ol->cx = grown;
        ol->cxcap = cap;
    }
    entry = PyObject_CallOneArg(ol->cx_of, parent);
    if (entry == NULL)
        return NULL;
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4 ||
            !PyList_Check(PyTuple_GET_ITEM(entry, 0))) {
        Py_DECREF(entry);
        PyErr_SetString(PyExc_TypeError, "OpenList: bad CX move entry");
        return NULL;
    }
    cx = PyMem_Malloc(sizeof(ol_cx));
    if (cx == NULL) {
        Py_DECREF(entry);
        PyErr_NoMemory();
        return NULL;
    }
    for (nbuf = 0; nbuf < 3; nbuf++)
        if (get_buf(PyTuple_GET_ITEM(entry, nbuf + 1), &cx->bufs[nbuf],
                    0) < 0)
            goto fail;
    if (cx->bufs[1].len != cx->bufs[0].len ||
            cx->bufs[2].len != cx->bufs[0].len ||
            PyList_GET_SIZE(PyTuple_GET_ITEM(entry, 0))
            != cx->bufs[0].len / 8) {
        PyErr_SetString(PyExc_ValueError, "OpenList: CX list mismatch");
        goto fail;
    }
    cx->h0 = h0;
    cx->h1 = h1;
    cx->entry = entry;
    ol->cx[ol->ncx++] = cx;
    return cx;
fail:
    while (nbuf > 0)
        PyBuffer_Release(&cx->bufs[--nbuf]);
    PyMem_Free(cx);
    Py_DECREF(entry);
    return NULL;
}

/* expand(state, g, ub, h_of) -> (pruned, incumbent_prunes, generated).
 * The state pop() returned last is read from its tier entry, any other
 * from its own rows. */
static PyObject *
ol_expand(OpenListObject *self, PyObject *args)
{
    PyObject *st, *ubo, *h_of, *res = NULL;
    long g;
    int nbuf = 0;
    Py_buffer bufs[3];
    const ol_cx *cx;
    expand_spec sp;
    ol_visit_ctx vc;

    if (!PyArg_ParseTuple(args, "OlOO", &st, &g, &ubo, &h_of) ||
            ol_threshold(ubo, &vc.has_ub, &vc.thr) < 0)
        return NULL;
    sp.n = self->n;
    if (self->last >= 0 && self->kids[self->last].state == st) {
        const ol_child *c = &self->kids[self->last];
        sp.idx = c->data;
        sp.qamp = child_qamp(c);
        sp.amp = child_amp(c);
        sp.m = c->m;
    }
    else {
        if (state_bufs(st, self->n, bufs) < 0)
            return NULL;
        nbuf = 3;
        sp.idx = bufs[0].buf;
        sp.qamp = bufs[1].buf;
        sp.amp = bufs[2].buf;
        sp.m = bufs[0].len / 8;
    }
    cx = ol_cx_moves(self, st, sp.idx, sp.m);
    if (cx == NULL)
        goto done;
    sp.x_moves = self->x_moves != NULL;
    sp.controls = cx->bufs[0].buf;
    sp.phases = cx->bufs[1].buf;
    sp.targets = cx->bufs[2].buf;
    sp.K = cx->bufs[0].len / 8;
    sp.max_controls = self->max_controls;
    sp.nbr = self->have_nbr ? self->nbr : NULL;
    sp.atol = self->atol;
    sp.rtol = self->rtol;
    sp.scale = self->scale;
    if (expand_scratch_reserve(&self->es, sp.n, sp.m) < 0)
        goto done;
    vc.ol = self;
    vc.parent = st;
    vc.h_of = h_of == Py_None ? NULL : h_of;
    vc.cx_moves = PyTuple_GET_ITEM(cx->entry, 0);
    vc.idx = sp.idx;
    vc.qamp = sp.qamp;
    vc.m = sp.m;
    vc.g = g;
    vc.pruned = vc.prunes = vc.generated = 0;
    if (expand_children(&sp, &self->es, ol_visit, &vc) < 0)
        goto done;
    res = Py_BuildValue("(nnn)", vc.pruned, vc.prunes, vc.generated);
done:
    while (nbuf > 0)
        PyBuffer_Release(&bufs[--nbuf]);
    return res;
}

static void
ol_release(ol_entry *e)
{
    Py_XDECREF(e->prev);
    Py_XDECREF(e->move);
}

/* pop(ub) -> (g, u, state, prev, move, goal, pruned, bnb_prunes, key_s,
 * hash_s): the next entry to expand, or the goal, its state interned and
 * its move built.  The twin of astar._OpenList.pop: entries superseded
 * by a cheaper push of their state are dropped, and so is a popped child
 * whose class best_g holds at most as cheaply (both count in pruned) or,
 * under the incumbent bound ub, whose class an unconditional
 * transposition entry proves cannot beat it (bnb_prunes).  A child with
 * no entangled qubit is a goal and skips the class tier.  key_s and
 * hash_s are the seconds of the key lookups and computations and of
 * their orbit hashing when the CanonContext is timed.  An empty list
 * answers state None, with u the last popped entry's (None when this
 * call popped none). */
static PyObject *
ol_pop(OpenListObject *self, PyObject *ubo)
{
    ol_tier t;
    Py_ssize_t pruned = 0, bnb = 0;
    int has_ub, have_u = 0, bnb_on = 0;
    double thr, last_u = 0.0;
    PyObject *res = NULL, *timers;

    if (ol_threshold(ubo, &has_ub, &thr) < 0)
        return NULL;
    memset(&t, 0, sizeof(t));
    timers = OBJ_SLOT(self->canon, cc_off[CC_TIMERS]);
    t.timed = timers != NULL && timers != Py_None;
    if (has_ub && self->transposition != NULL) {
        PyObject *data = PyObject_GetAttr(self->transposition, str_data);
        if (data == NULL)
            return NULL;
        bnb_on = PyObject_IsTrue(data);
        Py_DECREF(data);
        if (bnb_on < 0)
            return NULL;
    }
    while (self->len > 0) {
        ol_entry e;
        ol_child *c;
        PyObject *key, *state, *move;
        long prev_g;
        int goal, found;

        ol_heappop(self, &e);
        c = &self->kids[e.child];
        if (e.g > c->g) {
            pruned++;
            ol_release(&e);
            continue;
        }
        last_u = e.u;
        have_u = 1;
        if (c->nent < 0 && ol_entangled(self, c, c->data, child_amp(c)) < 0)
            goto fail;
        goal = c->nent == 0;
        if (!goal) {
            key = ol_class_key(self, c, &t);
            if (key == NULL)
                goto fail;
            found = ol_best_get(self, key, &prev_g);
            if (found > 0 && e.g >= prev_g) {
                /* the class was expanded at least this cheaply */
                pruned++;
                Py_DECREF(key);
                ol_release(&e);
                continue;
            }
            if (found >= 0 && bnb_on) {
                PyObject *proven = PyObject_CallMethodOneArg(
                    self->transposition, str_exhausted, key);
                double p = 0.0;
                if (proven == NULL)
                    found = -1;
                else if (proven != Py_None) {
                    p = PyFloat_AsDouble(proven);
                    if (p == -1.0 && PyErr_Occurred())
                        found = -1;
                }
                /* no ground path of cost <= p leaves the class, so with
                 * integer move costs any completion costs at least
                 * g + floor(p) + 1 */
                if (found >= 0 && proven != Py_None &&
                        (double)e.g + floor(p) + 1.0 > thr) {
                    bnb++;
                    Py_DECREF(proven);
                    Py_DECREF(key);
                    ol_release(&e);
                    continue;
                }
                Py_XDECREF(proven);
            }
            if (found < 0 || ol_best_put(self, key, e.g) < 0) {
                Py_DECREF(key);
                goto fail;
            }
            Py_DECREF(key);
        }
        state = ol_state(self, c);
        move = state != NULL ? ol_move(self, &e) : NULL;
        if (move != NULL) {
            res = Py_BuildValue("(ldOOOOnndd)", e.g, e.u, state,
                                e.prev != NULL ? e.prev : Py_None, move,
                                goal ? Py_True : Py_False, pruned, bnb,
                                t.key_s, t.hash_s);
            Py_DECREF(move);
            self->last = e.child;
        }
        ol_release(&e);
        goto out;
fail:
        ol_release(&e);
        return NULL;
    }
    if (have_u)
        res = Py_BuildValue("(OdOOOOnndd)", Py_None, last_u, Py_None,
                            Py_None, Py_None, Py_False, pruned, bnb,
                            t.key_s, t.hash_s);
    else
        res = Py_BuildValue("(OOOOOOnndd)", Py_None, Py_None, Py_None,
                            Py_None, Py_None, Py_False, pruned, bnb,
                            t.key_s, t.hash_s);
out:
    if (res != NULL && ol_tier_flush(self, &t) < 0)
        Py_CLEAR(res);
    return res;
}

/* proven_bound(u) -> int: ceil(min(u, every entry's g + h) - 1e-9), the
 * twin of engine._proven_bound over the open list */
static PyObject *
ol_proven_bound(OpenListObject *self, PyObject *arg)
{
    double best = PyFloat_AsDouble(arg);
    Py_ssize_t i;
    if (best == -1.0 && PyErr_Occurred())
        return NULL;
    for (i = 0; i < self->len; i++)
        if (self->heap[i].u < best)
            best = self->heap[i].u;
    return PyLong_FromDouble(ceil(best - 1e-9));
}

/* entries() -> [(f, -g, tiebreak, g + h, payload, prev, move)] in heap
 * order: the twin's open-list tuples, with the state's payload. */
static PyObject *
ol_entries(OpenListObject *self, PyObject *noargs)
{
    PyObject *res = PyList_New(self->len);
    Py_ssize_t i;
    if (res == NULL)
        return NULL;
    for (i = 0; i < self->len; i++) {
        const ol_entry *e = &self->heap[i];
        const ol_child *c = &self->kids[e->child];
        PyObject *payload = build_payload(self->n, c->data, child_qamp(c),
                                          c->m);
        PyObject *move = payload != NULL ? ol_move(self, e) : NULL;
        PyObject *item = move != NULL ? Py_BuildValue(
            "(dlKdNON)", e->f, -e->g, (unsigned long long)e->tie, e->u,
            payload, e->prev != NULL ? e->prev : Py_None, move) : NULL;
        if (item == NULL) {
            if (move == NULL)
                Py_XDECREF(payload);
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, i, item);
    }
    return res;
}

/* pushed() -> [(payload, g, entangled)] in insertion order: the twin's
 * g_pushed, with each state's cached entangled set (None: not
 * computed). */
static PyObject *
ol_pushed(OpenListObject *self, PyObject *noargs)
{
    PyObject *res = PyList_New(self->nkids);
    Py_ssize_t i;
    if (res == NULL)
        return NULL;
    for (i = 0; i < self->nkids; i++) {
        const ol_child *c = &self->kids[i];
        PyObject *payload = build_payload(self->n, c->data, child_qamp(c),
                                          c->m), *ent, *item;
        if (c->state != NULL)
            ent = Py_NewRef(PS_SLOT(c->state, PS_ENTANGLED));
        else if (c->nent >= 0)
            ent = mask_tuple(c->ent, self->n);
        else
            ent = Py_NewRef(Py_None);
        item = payload != NULL && ent != NULL
            ? Py_BuildValue("(NlN)", payload, c->g, ent) : NULL;
        if (item == NULL) {
            if (payload == NULL || ent == NULL) {
                Py_XDECREF(payload);
                Py_XDECREF(ent);
            }
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, i, item);
    }
    return res;
}

static Py_ssize_t
ol_length(OpenListObject *self)
{
    return self->len;
}

static void
ol_dealloc(OpenListObject *self)
{
    Py_ssize_t i;
    for (i = 0; i < self->len; i++) {
        Py_XDECREF(self->heap[i].prev);
        Py_XDECREF(self->heap[i].move);
    }
    for (i = 0; i < self->nkids; i++)
        Py_XDECREF(self->kids[i].state);
    for (i = 0; i < self->nblocks; i++)
        PyMem_Free(self->blocks[i]);
    PyMem_Free(self->blocks);
    PyMem_Free(self->heap);
    PyMem_Free(self->kids);
    PyMem_Free(self->index);
    PyMem_Free(self->pbuf);
    PyMem_Free(self->ent_i);
    PyMem_Free(self->ent_a);
    for (i = 0; i < self->ncx; i++) {
        int b;
        for (b = 0; b < 3; b++)
            PyBuffer_Release(&self->cx[i]->bufs[b]);
        Py_DECREF(self->cx[i]->entry);
        PyMem_Free(self->cx[i]);
    }
    PyMem_Free(self->cx);
    PyMem_Free(self->autos);
    PyMem_Free(self->carena);
    expand_scratch_free(&self->es);
    Py_XDECREF(self->pool);
    Py_XDECREF(self->table);
    Py_XDECREF(self->hash_fn);
    Py_XDECREF(self->cx_of);
    Py_XDECREF(self->x_moves);
    Py_XDECREF(self->nobj);
    Py_XDECREF(self->canon);
    Py_XDECREF(self->best_g);
    Py_XDECREF(self->transposition);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* OpenList(pool, n, hash_fn, cx_of, x_moves, max_controls,
 *          neighbor_masks, weight, atol, rtol, scale, canon, level,
 *          automorphisms, best_g, transposition) */
static PyObject *
ol_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *pool, *hash_fn, *cx_of, *x_moves, *nbr, *table, *canon;
    PyObject *autos, *best_g, *transposition, *cap;
    int n, max_controls, level;
    long tie_cap;
    Py_ssize_t perm_cap;
    double weight, atol, rtol, scale;
    OpenListObject *self;
    size_t slot;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError, "OpenList: no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OiOOOiOddddOiOOO", &pool, &n, &hash_fn,
                          &cx_of, &x_moves, &max_controls, &nbr, &weight,
                          &atol, &rtol, &scale, &canon, &level, &autos,
                          &best_g, &transposition))
        return NULL;
    if (ps_type == NULL || mm_type == NULL || sp_type == NULL ||
            cc_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "OpenList: bind_kernel() was not called");
        return NULL;
    }
    if (!PyObject_TypeCheck(pool, sp_type) || !PyCallable_Check(cx_of) ||
            (hash_fn != Py_None && !PyCallable_Check(hash_fn)) ||
            (x_moves != Py_None && !PyList_Check(x_moves)) ||
            (nbr != Py_None && !PyList_Check(nbr) && !PyTuple_Check(nbr)) ||
            !PyObject_TypeCheck(canon, cc_type) ||
            !PyObject_TypeCheck(best_g, hk_type)) {
        PyErr_SetString(PyExc_TypeError, "OpenList: bad argument types");
        return NULL;
    }
    if (n < 0 || n > 62 || level < 0 || level > 2) {
        PyErr_SetString(PyExc_ValueError, "OpenList: bad width or level");
        return NULL;
    }
    if ((x_moves != Py_None && PyList_GET_SIZE(x_moves) < n) ||
            (nbr != Py_None && PySequence_Fast_GET_SIZE(nbr) < n)) {
        PyErr_SetString(PyExc_ValueError, "OpenList: short move list");
        return NULL;
    }
    table = SP_SLOT(pool, SP_TABLE);
    if (table == NULL || !PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "OpenList: the pool has no table");
        return NULL;
    }
    cap = PyObject_GetAttrString(canon, "tie_cap");
    tie_cap = cap != NULL ? PyLong_AsLong(cap) : -1;
    Py_XDECREF(cap);
    if (tie_cap == -1 && PyErr_Occurred())
        return NULL;
    cap = PyObject_GetAttrString(canon, "perm_cap");
    perm_cap = cap != NULL ? PyLong_AsSsize_t(cap) : -1;
    Py_XDECREF(cap);
    if (perm_cap == -1 && PyErr_Occurred())
        return NULL;
    self = (OpenListObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    expand_scratch_init(&self->es);
    self->pool = Py_NewRef(pool);
    self->table = Py_NewRef(table);
    self->hash_fn = hash_fn != Py_None ? Py_NewRef(hash_fn) : NULL;
    self->cx_of = Py_NewRef(cx_of);
    self->x_moves = x_moves != Py_None ? Py_NewRef(x_moves) : NULL;
    self->nobj = PyLong_FromLong(n);
    self->n = n;
    self->max_controls = max_controls;
    self->weight = weight;
    self->atol = atol;
    self->rtol = rtol;
    self->scale = scale;
    self->have_nbr = nbr != Py_None;
    self->last = -1;
    self->canon = Py_NewRef(canon);
    self->best_g = Py_NewRef(best_g);
    self->transposition = transposition != Py_None
        ? Py_NewRef(transposition) : NULL;
    self->level = level;
    self->tie_cap = tie_cap;
    self->perm_cap = perm_cap;
    self->imask = 255;
    self->index = PyMem_Malloc((self->imask + 1) * sizeof(Py_ssize_t));
    if (self->nobj == NULL || self->index == NULL ||
            (self->have_nbr && neighbor_masks(nbr, n, self->nbr) < 0) ||
            (autos != Py_None &&
             (self->nautos = parse_orderings(autos, n, &self->autos)) < 0)) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        Py_DECREF(self);
        return NULL;
    }
    for (slot = 0; slot <= self->imask; slot++)
        self->index[slot] = -1;
    return (PyObject *)self;
}

static PyMethodDef ol_methods[] = {
    {"start", (PyCFunction)ol_start, METH_VARARGS,
     "start(state, h, ub) -> bool: record the start at g = 0 and push it "
     "unless g + h reaches ub."},
    {"expand", (PyCFunction)ol_expand, METH_VARARGS,
     "expand(state, g, ub, h_of) -> (pruned, incumbent_prunes, generated):"
     " push the children of one expansion."},
    {"pop", (PyCFunction)ol_pop, METH_O,
     "pop(ub) -> (g, u, state, prev, move, goal, pruned, bnb_prunes, key_s,"
     " hash_s): the next entry to expand, or the goal."},
    {"proven_bound", (PyCFunction)ol_proven_bound, METH_O,
     "proven_bound(u) -> int: the exhaustion bound over u and the list."},
    {"entries", (PyCFunction)ol_entries, METH_NOARGS,
     "entries() -> list of (f, -g, tiebreak, g + h, payload, prev, move)."},
    {"pushed", (PyCFunction)ol_pushed, METH_NOARGS,
     "pushed() -> list of (payload, g, entangled), insertion order."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods ol_as_sequence = {
    .sq_length = (lenfunc)ol_length,
};

static PyTypeObject OpenListType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._fastcore.OpenList",
    .tp_basicsize = sizeof(OpenListObject),
    .tp_dealloc = (destructor)ol_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A*'s open list: children stay rows until popped.",
    .tp_methods = ol_methods,
    .tp_as_sequence = &ol_as_sequence,
    .tp_new = ol_new,
};

/* ------------------------------------------------------------------ */
/* untrack(obj) -> obj                                                 */
/* ------------------------------------------------------------------ */

/* Take an object that cannot be part of a reference cycle out of the
 * cyclic collector (reference counting still frees it). */
static PyObject *
fc_untrack(PyObject *self, PyObject *obj)
{
    if (PyObject_IS_GC(obj))
        PyObject_GC_UnTrack(obj);
    Py_INCREF(obj);
    return obj;
}

/* ------------------------------------------------------------------ */
/* U64Map: insertion-ordered open-addressing map, uint64 -> object     */
/* ------------------------------------------------------------------ */


static int
u64map_rebuild(U64MapObject *self, size_t minsize)
{
    size_t newsize = 8;
    Py_ssize_t i, w = 0;
    Py_ssize_t *nindex;
    while (newsize < minsize)
        newsize *= 2;
    nindex = PyMem_Malloc(newsize * sizeof(Py_ssize_t));
    if (nindex == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < (Py_ssize_t)newsize; i++)
        nindex[i] = -1;
    /* compact the log (dropping tombstones, order preserved) and
     * reindex */
    for (i = 0; i < self->nentries; i++) {
        if (self->entries[i].val == NULL)
            continue;
        self->entries[w] = self->entries[i];
        {
            uint64_t key = self->entries[w].key;
            size_t slot = (size_t)key & (newsize - 1);
            uint64_t perturb = key;
            while (nindex[slot] != -1) {
                perturb >>= 5;
                slot = (slot * 5 + perturb + 1) & (newsize - 1);
            }
            nindex[slot] = w;
        }
        w++;
    }
    self->nentries = w;
    self->live = w;
    PyMem_Free(self->index);
    self->index = nindex;
    self->mask = newsize - 1;
    self->fill = (size_t)w;
    return 0;
}

/* find the entry for key; returns entry idx or -1, sets *slot_out to the
 * insertion slot (first tombstone on the probe path, else the empty
 * slot) */
static Py_ssize_t
u64map_probe(U64MapObject *self, uint64_t key, Py_ssize_t *slot_out)
{
    size_t slot = (size_t)key & self->mask;
    uint64_t perturb = key;
    Py_ssize_t freeslot = -1;
    for (;;) {
        Py_ssize_t e = self->index[slot];
        if (e == -1) {
            if (slot_out)
                *slot_out = freeslot >= 0 ? freeslot : (Py_ssize_t)slot;
            return -1;
        }
        if (e == -2) {
            if (freeslot < 0)
                freeslot = (Py_ssize_t)slot;
        }
        else if (self->entries[e].key == key) {
            if (slot_out)
                *slot_out = (Py_ssize_t)slot;
            return e;
        }
        perturb >>= 5;
        slot = (slot * 5 + perturb + 1) & self->mask;
    }
}

static int
u64map_key_from_obj(PyObject *keyobj, uint64_t *out)
{
    uint64_t key = PyLong_AsUnsignedLongLongMask(keyobj);
    if (key == (uint64_t)-1 && PyErr_Occurred())
        return -1;
    *out = key;
    return 0;
}

static PyObject *
u64map_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    U64MapObject *self = (U64MapObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->entries = NULL;
    self->nentries = self->cap_entries = self->live = 0;
    self->index = PyMem_Malloc(8 * sizeof(Py_ssize_t));
    if (self->index == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    for (int i = 0; i < 8; i++)
        self->index[i] = -1;
    self->mask = 7;
    self->fill = 0;
    return (PyObject *)self;
}

static int
u64map_traverse(U64MapObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->nentries; i++) {
        Py_VISIT(self->entries[i].keyobj);
        Py_VISIT(self->entries[i].val);
    }
    return 0;
}

static int
u64map_clear_impl(U64MapObject *self)
{
    Py_ssize_t i, count = self->nentries;
    self->nentries = 0;
    self->live = 0;
    for (i = 0; i < count; i++) {
        Py_CLEAR(self->entries[i].keyobj);
        Py_CLEAR(self->entries[i].val);
    }
    return 0;
}

static void
u64map_dealloc(U64MapObject *self)
{
    PyObject_GC_UnTrack(self);
    u64map_clear_impl(self);
    PyMem_Free(self->entries);
    PyMem_Free(self->index);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
u64map_length(U64MapObject *self)
{
    return self->live;
}

/* map[keyobj] = val, with key the low 64 bits of keyobj */
static int
u64map_set(U64MapObject *self, uint64_t key, PyObject *keyobj, PyObject *val)
{
    Py_ssize_t slot, e = u64map_probe(self, key, &slot);
    if (e >= 0) {  /* overwrite in place: insertion position kept */
        Py_INCREF(val);
        Py_SETREF(self->entries[e].val, val);
        return 0;
    }
    if (self->nentries >= self->cap_entries) {
        Py_ssize_t newcap = self->cap_entries ? self->cap_entries * 2 : 16;
        u64_entry *ne = PyMem_Realloc(self->entries,
                                      (size_t)newcap * sizeof(u64_entry));
        if (ne == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->entries = ne;
        self->cap_entries = newcap;
    }
    self->entries[self->nentries].key = key;
    Py_INCREF(keyobj);
    self->entries[self->nentries].keyobj = keyobj;
    Py_INCREF(val);
    self->entries[self->nentries].val = val;
    if (self->index[slot] == -1)
        self->fill++;
    self->index[slot] = self->nentries;
    self->nentries++;
    self->live++;
    if ((self->fill + 1) * 3 >= (self->mask + 1) * 2)
        return u64map_rebuild(self, (size_t)self->live * 4);
    return 0;
}

static int
u64map_ass_subscript(U64MapObject *self, PyObject *keyobj, PyObject *val)
{
    uint64_t key;
    Py_ssize_t e, slot;
    if (u64map_key_from_obj(keyobj, &key) < 0)
        return -1;
    if (val != NULL)
        return u64map_set(self, key, keyobj, val);
    e = u64map_probe(self, key, &slot);  /* delete */
    if (e < 0 || self->entries[e].val == NULL) {
        PyErr_SetObject(PyExc_KeyError, keyobj);
        return -1;
    }
    Py_CLEAR(self->entries[e].keyobj);
    Py_CLEAR(self->entries[e].val);
    self->index[slot] = -2;
    self->live--;
    if (self->nentries > 64 && self->live * 2 < self->nentries)
        return u64map_rebuild(self, (size_t)self->live * 4);
    return 0;
}

/* The live value under key (borrowed), or NULL. */
static PyObject *
u64map_lookup(U64MapObject *self, uint64_t key)
{
    Py_ssize_t e = u64map_probe(self, key, NULL);
    return e >= 0 ? self->entries[e].val : NULL;
}

static PyObject *
u64map_subscript(U64MapObject *self, PyObject *keyobj)
{
    uint64_t key;
    Py_ssize_t e;
    if (u64map_key_from_obj(keyobj, &key) < 0)
        return NULL;
    e = u64map_probe(self, key, NULL);
    if (e < 0 || self->entries[e].val == NULL) {
        PyErr_SetObject(PyExc_KeyError, keyobj);
        return NULL;
    }
    Py_INCREF(self->entries[e].val);
    return self->entries[e].val;
}

static PyObject *
u64map_get(U64MapObject *self, PyObject *args)
{
    PyObject *keyobj, *def = Py_None;
    uint64_t key;
    Py_ssize_t e;
    if (!PyArg_ParseTuple(args, "O|O", &keyobj, &def))
        return NULL;
    if (u64map_key_from_obj(keyobj, &key) < 0)
        return NULL;
    e = u64map_probe(self, key, NULL);
    if (e < 0 || self->entries[e].val == NULL) {
        Py_INCREF(def);
        return def;
    }
    Py_INCREF(self->entries[e].val);
    return self->entries[e].val;
}

static int
u64map_contains(U64MapObject *self, PyObject *keyobj)
{
    uint64_t key;
    Py_ssize_t e;
    if (u64map_key_from_obj(keyobj, &key) < 0)
        return -1;
    e = u64map_probe(self, key, NULL);
    return e >= 0 && self->entries[e].val != NULL;
}

/* which: 0 = keys, 1 = values, 2 = items */
static PyObject *
u64map_collect(U64MapObject *self, int which)
{
    PyObject *res = PyList_New(self->live);
    Py_ssize_t i, w = 0;
    if (res == NULL)
        return NULL;
    for (i = 0; i < self->nentries; i++) {
        PyObject *item;
        if (self->entries[i].val == NULL)
            continue;
        if (which == 0) {
            item = self->entries[i].keyobj;
            Py_INCREF(item);
        }
        else if (which == 1) {
            item = self->entries[i].val;
            Py_INCREF(item);
        }
        else {
            item = PyTuple_Pack(2, self->entries[i].keyobj,
                                self->entries[i].val);
            if (item == NULL) {
                Py_DECREF(res);
                return NULL;
            }
        }
        PyList_SET_ITEM(res, w++, item);
    }
    return res;
}

static PyObject *
u64map_keys(U64MapObject *self, PyObject *noargs)
{
    return u64map_collect(self, 0);
}

static PyObject *
u64map_values(U64MapObject *self, PyObject *noargs)
{
    return u64map_collect(self, 1);
}

static PyObject *
u64map_items(U64MapObject *self, PyObject *noargs)
{
    return u64map_collect(self, 2);
}

static PyObject *
u64map_iter(U64MapObject *self)
{
    PyObject *keys = u64map_collect(self, 0);
    PyObject *it;
    if (keys == NULL)
        return NULL;
    it = PyObject_GetIter(keys);
    Py_DECREF(keys);
    return it;
}

static PyMethodDef u64map_methods[] = {
    {"get", (PyCFunction)u64map_get, METH_VARARGS,
     "get(key, default=None) -> value"},
    {"keys", (PyCFunction)u64map_keys, METH_NOARGS,
     "keys() -> list (insertion order)"},
    {"values", (PyCFunction)u64map_values, METH_NOARGS,
     "values() -> list (insertion order)"},
    {"items", (PyCFunction)u64map_items, METH_NOARGS,
     "items() -> list of (key, value) (insertion order)"},
    {NULL, NULL, 0, NULL},
};

static PyMappingMethods u64map_as_mapping = {
    (lenfunc)u64map_length,
    (binaryfunc)u64map_subscript,
    (objobjargproc)u64map_ass_subscript,
};

static PySequenceMethods u64map_as_sequence = {
    .sq_contains = (objobjproc)u64map_contains,
};

static PyTypeObject U64MapType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._fastcore.U64Map",
    .tp_basicsize = sizeof(U64MapObject),
    .tp_dealloc = (destructor)u64map_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Insertion-ordered open-addressing map from 64-bit ints "
              "to objects.",
    .tp_traverse = (traverseproc)u64map_traverse,
    .tp_clear = (inquiry)u64map_clear_impl,
    .tp_methods = u64map_methods,
    .tp_as_mapping = &u64map_as_mapping,
    .tp_as_sequence = &u64map_as_sequence,
    .tp_iter = (getiterfunc)u64map_iter,
    .tp_new = u64map_new,
};

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef fastcore_methods[] = {
    {"splitmix_constants", fc_splitmix_constants, METH_NOARGS,
     "Compiled-in splitmix64 constants (anti-drift check)."},
    {"quantize", fc_quantize, METH_VARARGS,
     "quantize(src, dst, scale): np.round twin with -0.0 -> 0.0."},
    {"payload", fc_payload, METH_VARARGS,
     "payload(n, idx, qamp) -> bytes."},
    {"column_counts", fc_column_counts, METH_VARARGS,
     "column_counts(n, idx) -> list of per-qubit column weights."},
    {"entangled_qubits", fc_entangled_qubits, METH_VARARGS,
     "entangled_qubits(n, idx, amp) -> tuple of non-separable qubits."},
    {"wl_pair_ids", fc_wl_pair_ids, METH_VARARGS,
     "wl_pair_ids(n, idx, ranks) -> n x n flip-minimized pair-table ids."},
    {"canon_key", fc_canon_key, METH_VARARGS,
     "canon_key(ps, pu2, tie_cap, perm_cap, u2_data, automorphisms, timed, "
     "scale) -> (key, u2_miss, hashing_seconds)."},
    {"gh_step", fc_gh_step, METH_VARARGS,
     "gh_step(n, idx, amp, minimize_literals) -> (literals, p, targets, "
     "theta, idx, amp): one GH merge of a sorted packed state."},
    {"best_merge", fc_best_merge, METH_VARARGS,
     "best_merge(n, idx, amp, max_controls) -> None | (target, theta, "
     "controls, drop, idx, amp): the cheapest-per-pair merge."},
    {"bind_kernel", fc_bind_kernel, METH_VARARGS,
     "bind_kernel(PackedState, MergeMove, CanonKey, StatePool, "
     "CanonContext, HashStore, BoundedCache, HashKeyedMap, _PayloadKey, "
     "refine): the kernel classes and the tie-refinement callback."},
    {"successors", fc_successors, METH_VARARGS,
     "successors(table, hash_fn, ps, x_moves, cx_moves, cx_controls, "
     "cx_phases, cx_targets, max_controls, neighbor_masks, atol, rtol, "
     "scale) -> (arcs, interned, hits, collisions)."},
    {"untrack", fc_untrack, METH_O,
     "untrack(obj) -> obj, taken out of the cyclic garbage collector."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._fastcore",
    "Native hot-loop kernels (bit-identical twins of core/kernel.py).",
    -1,
    fastcore_methods,
};

PyMODINIT_FUNC
PyInit__fastcore(void)
{
    PyObject *mod;
    import_array();
    if (PyType_Ready(&U64MapType) < 0 || PyType_Ready(&OpenListType) < 0)
        return NULL;
    str_target = PyUnicode_InternFromString("target");
    str_theta = PyUnicode_InternFromString("theta");
    str_controls = PyUnicode_InternFromString("controls");
    str_get = PyUnicode_InternFromString("get");
    str_put = PyUnicode_InternFromString("put");
    str_data = PyUnicode_InternFromString("data");
    str_exhausted = PyUnicode_InternFromString("exhausted_budget");
    empty_tuple = PyTuple_New(0);
    if (str_target == NULL || str_theta == NULL || str_controls == NULL ||
            str_get == NULL || str_put == NULL || str_data == NULL ||
            str_exhausted == NULL || empty_tuple == NULL)
        return NULL;
    mod = PyModule_Create(&fastcore_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&U64MapType);
    if (PyModule_AddObject(mod, "U64Map", (PyObject *)&U64MapType) < 0) {
        Py_DECREF(&U64MapType);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&OpenListType);
    if (PyModule_AddObject(mod, "OpenList", (PyObject *)&OpenListType) < 0) {
        Py_DECREF(&OpenListType);
        Py_DECREF(mod);
        return NULL;
    }
    if (PyModule_AddIntConstant(mod, "SHORT_SORT", SHORT_SORT) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}

