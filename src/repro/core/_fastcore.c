/* _fastcore: native hot-loop kernels for repro.core.kernel.
 *
 * Every function is a bit-for-bit twin of a Python/NumPy reference in
 * core/kernel.py (astar_push: core/astar.py; gh_step: baselines/mflow.py;
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
static PyObject *
counts_list(int n, const int64_t *idx, Py_ssize_t m, int64_t *counts)
{
    PyObject *res = PyList_New(n);
    int q;
    Py_ssize_t j;
    if (res == NULL)
        return NULL;
    for (q = 0; q < n; q++) {
        int shift = n - 1 - q;
        int64_t ones = 0;
        PyObject *v;
        for (j = 0; j < m; j++)
            ones += (idx[j] >> shift) & 1;
        if (counts != NULL)
            counts[q] = ones;
        v = PyLong_FromLongLong(ones);
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
                qsort(pairs, (size_t)m, sizeof(ia_pair), cmp_ia_pair);
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
        qsort(pairs, (size_t)m, sizeof(ij_pair), cmp_ij_pair);
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
        qsort(out, (size_t)count, sizeof(ia_pair), cmp_ia_pair);
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

/* The one-call expansion builds kernel.PackedState and moves.MergeMove
 * objects itself, and canon_key builds kernel.CanonKey objects.
 * bind_kernel(PackedState, MergeMove, CXMove, CanonKey, refine) records
 * the classes, the __slots__ offsets of PackedState and CanonKey, and
 * canon_key's refinement callback; kernel.py calls it once at import.
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
static PyObject *str_cost = NULL;
static PyObject *empty_tuple = NULL;

#define PS_SLOT(obj, i) (*(PyObject **)((char *)(obj) + ps_off[i]))

/* astar_push prices CXMoves without the property call */
enum { CK_N, CK_H, CK_FULL, CK_NSLOTS };
static const char *const ck_slot_names[CK_NSLOTS] = {"n", "h", "full"};
static PyTypeObject *ck_type = NULL;
static Py_ssize_t ck_off[CK_NSLOTS];
static PyTypeObject *cx_type = NULL;

#define CK_SLOT(obj, i) (*(PyObject **)((char *)(obj) + ck_off[i]))

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
    PyObject *pst, *mmt, *cxt, *ckt, *refine;
    Py_ssize_t off[PS_NSLOTS], coff[CK_NSLOTS];

    if (!PyArg_ParseTuple(args, "O!O!O!O!O", &PyType_Type, &pst,
                          &PyType_Type, &mmt, &PyType_Type, &cxt,
                          &PyType_Type, &ckt, &refine))
        return NULL;
    if (!PyCallable_Check(refine)) {
        PyErr_SetString(PyExc_TypeError, "bind_kernel: refine not callable");
        return NULL;
    }
    if (slot_offsets(pst, ps_slot_names, PS_NSLOTS, off) < 0 ||
            slot_offsets(ckt, ck_slot_names, CK_NSLOTS, coff) < 0)
        return NULL;
    memcpy(ps_off, off, sizeof(off));
    memcpy(ck_off, coff, sizeof(coff));
    Py_INCREF(pst);
    Py_XSETREF(ps_type, (PyTypeObject *)pst);
    Py_INCREF(mmt);
    Py_XSETREF(mm_type, (PyTypeObject *)mmt);
    Py_INCREF(cxt);
    Py_XSETREF(cx_type, (PyTypeObject *)cxt);
    Py_INCREF(ckt);
    Py_XSETREF(ck_type, (PyTypeObject *)ckt);
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

/* Lookup-or-insert of one state: a new reference to the interned
 * PackedState, or NULL with an exception set. */
static PyObject *
pool_intern(pool_ctx *pc, const int64_t *idx, const double *amp,
            const double *qamp, Py_ssize_t m)
{
    PyObject *payload, *hkey = NULL, *entry, *chain = NULL, *state = NULL;
    Py_ssize_t i;

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
    if (hkey == NULL)
        goto done;
    entry = PyDict_GetItemWithError(pc->table, hkey);
    if (entry == NULL) {
        if (PyErr_Occurred())
            goto done;
        state = new_packed(pc->nobj, idx, amp, qamp, m, payload, hkey);
        if (state == NULL)
            goto done;
        if (PyDict_SetItem(pc->table, hkey, state) < 0) {
            Py_CLEAR(state);
            goto done;
        }
        pc->interned++;
        goto done;
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
            state = entry;
            goto done;
        }
        chain = PyList_New(1);
        if (chain == NULL)
            goto done;
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
    Py_XDECREF(hkey);
    Py_DECREF(payload);
    return state;
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
    qsort(pairs, (size_t)m, sizeof(ij_pair), cmp_ij_pair);
    for (j = 0; j < m; j++) {
        row_i[j] = pairs[j].v;
        row_a[j] = amp[pairs[j].j];
        row_q[j] = qamp[pairs[j].j];
    }
}

/* ------------------------------------------------------------------ */
/* successors(table, hash_fn, ps, x_moves, cx_moves, cx_controls,      */
/*            cx_phases, cx_targets, max_controls, neighbor_masks,     */
/*            atol, rtol, scale) -> (arcs, interned, hits, collisions) */
/* ------------------------------------------------------------------ */

/* One whole expansion of kernel.successors_packed: X moves (x_moves is the
 * list of n XMoves, or None), the CX moves of the memoized move list, then
 * every merge of every target (neighbor_masks: None, or per-qubit coupling
 * masks restricting merge controls).  Each child is materialized, quantized,
 * serialized, hashed and interned into the pool's table here; the arcs
 * come back in the Python path's order, with the pool counter deltas. */
static PyObject *
fc_successors(PyObject *self, PyObject *args)
{
    PyObject *table, *hash_fn, *ps, *x_moves, *cx_moves, *nbr;
    PyObject *c_o, *p_o, *t_o, *out = NULL, *res = NULL, *nobj;
    int max_controls, n, q, target, nbuf = 0;
    double atol, rtol, scale;
    Py_buffer idx_b, amp_b, qamp_b, c_b, p_b, t_b;
    Py_buffer *bufs[6] = {&idx_b, &amp_b, &qamp_b, &c_b, &p_b, &t_b};
    const int64_t *idx, *controls, *phases, *targets;
    const double *amp, *qamp;
    Py_ssize_t m, K, k, j, h;
    pool_ctx pc;
    ij_pair *pairs = NULL;
    int64_t *row_i = NULL, *i0 = NULL, *singles = NULL, *pcodes = NULL;
    int64_t *scodes = NULL, other[64], reps[64];
    double *row_a = NULL, *row_q = NULL, *a0 = NULL, *a1 = NULL;
    unsigned char *cols = NULL;
    apply_scratch sc = {NULL, NULL, NULL, NULL, NULL, NULL};
    walk_list wl = {NULL, 0, 0};

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
    m = idx_b.len / 8;
    K = c_b.len / 8;
    if (PyList_GET_SIZE(cx_moves) != K || p_b.len / 8 != K ||
            t_b.len / 8 != K) {
        PyErr_SetString(PyExc_ValueError, "successors: CX list mismatch");
        goto done;
    }
    idx = (const int64_t *)idx_b.buf;
    amp = (const double *)amp_b.buf;
    qamp = (const double *)qamp_b.buf;
    controls = (const int64_t *)c_b.buf;
    phases = (const int64_t *)p_b.buf;
    targets = (const int64_t *)t_b.buf;

    pairs = PyMem_Malloc((size_t)(m + 1) * sizeof(ij_pair));
    row_i = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(int64_t));
    row_a = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(double));
    row_q = PyMem_Malloc((size_t)(2 * m + 1) * sizeof(double));
    i0 = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    singles = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    pcodes = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    scodes = PyMem_Malloc((size_t)(m + 1) * sizeof(int64_t));
    a0 = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    a1 = PyMem_Malloc((size_t)(m + 1) * sizeof(double));
    cols = PyMem_Malloc((size_t)(n + 1) * (size_t)(m + 1));
    if (pairs == NULL || row_i == NULL || row_a == NULL || row_q == NULL ||
            i0 == NULL || singles == NULL || pcodes == NULL ||
            scodes == NULL || a0 == NULL || a1 == NULL || cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (apply_scratch_alloc(&sc, m) < 0)
        goto done;
    out = PyList_New(0);
    if (out == NULL)
        goto done;
    pc.table = table;
    pc.hash_fn = hash_fn == Py_None ? NULL : hash_fn;
    pc.nobj = nobj;
    pc.n = n;
    pc.interned = pc.hits = pc.collisions = 0;

    /* X moves (twin of apply_x_packed), identity children dropped */
    if (x_moves != Py_None) {
        for (q = 0; q < n; q++) {
            int64_t mask = (int64_t)1 << (n - 1 - q);
            PyObject *nxt;
            int rc = 0;
            for (j = 0; j < m; j++) {
                pairs[j].v = idx[j] ^ mask;
                pairs[j].j = j;
            }
            gather_sorted(pairs, m, amp, qamp, row_i, row_a, row_q);
            nxt = pool_intern(&pc, row_i, row_a, row_q, m);
            if (nxt == NULL)
                goto fail;
            if (nxt != ps)
                rc = push_arc(out, PyList_GET_ITEM(x_moves, q), nxt);
            Py_DECREF(nxt);
            if (rc < 0)
                goto fail;
        }
    }
    /* CX moves (twin of _batch_cx_successors), identity children dropped */
    for (k = 0; k < K; k++) {
        int cshift = n - 1 - (int)controls[k];
        int64_t phase = phases[k];
        int64_t tmask = (int64_t)1 << (n - 1 - (int)targets[k]);
        PyObject *nxt;
        int rc = 0;
        for (j = 0; j < m; j++) {
            int64_t v = idx[j];
            if (((v >> cshift) & 1) == phase)
                v ^= tmask;
            pairs[j].v = v;
            pairs[j].j = j;
        }
        gather_sorted(pairs, m, amp, qamp, row_i, row_a, row_q);
        nxt = pool_intern(&pc, row_i, row_a, row_q, m);
        if (nxt == NULL)
            goto fail;
        if (nxt != ps)
            rc = push_arc(out, PyList_GET_ITEM(cx_moves, k), nxt);
        Py_DECREF(nxt);
        if (rc < 0)
            goto fail;
    }
    /* merges, target by target (twin of enumerate_merges_packed followed
     * by _merge_arrays, the quantization pass and interning) */
    for (target = 0; target < n; target++) {
        int tshift = n - 1 - target, nreps, kmax;
        int64_t tmask = (int64_t)1 << tshift, tnbr = -1;
        Py_ssize_t P, S, O = 0;
        P = split_pairs(idx, amp, m, tmask, i0, a0, a1, singles, &S);
        if (P == 0)
            continue;
        if (nbr != Py_None) {
            tnbr = (int64_t)PyLong_AsLongLong(
                PySequence_Fast_GET_ITEM(nbr, target));
            if (tnbr == -1 && PyErr_Occurred())
                goto fail;
        }
        for (q = 0; q < n; q++) {
            if (q != target && ((tnbr >> q) & 1))
                other[O++] = q;
        }
        nreps = rep_codes(n, i0, P, singles, S, other, O, cols, reps,
                          pcodes, scodes);
        kmax = max_controls < nreps ? max_controls : nreps;
        wl.count = 0;
        if (merge_walk_core(pcodes, P, scodes, S, a0, a1, nreps, kmax, rtol,
                            &wl) < 0)
            goto fail;
        for (h = 0; h < wl.count; h++) {
            int64_t smask = wl.hits[h].smask, ref_idx = i0[wl.hits[h].ref];
            int64_t cmask = 0, cval = 0;
            double theta = merge_angle(a0[wl.hits[h].ref],
                                       a1[wl.hits[h].ref],
                                       wl.hits[h].direction);
            Py_ssize_t nctl = 0, count, c = 0;
            PyObject *ctl, *move, *nxt;
            int r, rc;
            for (r = 0; r < nreps; r++)
                nctl += (smask >> r) & 1;
            ctl = PyTuple_New(nctl);
            if (ctl == NULL)
                goto fail;
            for (r = 0; r < nreps; r++) {
                int shift;
                int64_t bit;
                PyObject *lit;
                if (!((smask >> r) & 1))
                    continue;
                shift = n - 1 - (int)reps[r];
                bit = (ref_idx >> shift) & 1;
                cmask |= (int64_t)1 << shift;
                cval |= bit << shift;
                lit = Py_BuildValue("(LL)", (long long)reps[r],
                                    (long long)bit);
                if (lit == NULL) {
                    Py_DECREF(ctl);
                    goto fail;
                }
                PyObject_GC_UnTrack(lit);
                PyTuple_SET_ITEM(ctl, c++, lit);
            }
            PyObject_GC_UnTrack(ctl);
            move = new_merge_move(target, theta, ctl);
            Py_DECREF(ctl);
            if (move == NULL)
                goto fail;
            count = merge_apply_core(idx, amp, m, cmask, cval, tmask, theta,
                                     atol, &sc, 1);
            for (j = 0; j < count; j++) {
                double qv = rint(sc.out[j].a * scale) / scale;
                if (qv == 0.0)
                    qv = 0.0;  /* normalize -0.0 */
                row_i[j] = sc.out[j].v;
                row_a[j] = sc.out[j].a;
                row_q[j] = qv;
            }
            nxt = pool_intern(&pc, row_i, row_a, row_q, count);
            if (nxt == NULL) {
                Py_DECREF(move);
                goto fail;
            }
            rc = push_arc(out, move, nxt);
            Py_DECREF(move);
            Py_DECREF(nxt);
            if (rc < 0)
                goto fail;
        }
    }
    res = Py_BuildValue("(Onnn)", out, pc.interned, pc.hits, pc.collisions);
    goto done;
fail:
    /* the pool keeps whatever was interned before the error */
    res = NULL;
done:
    Py_XDECREF(out);
    PyMem_Free(pairs);
    PyMem_Free(row_i);
    PyMem_Free(row_a);
    PyMem_Free(row_q);
    PyMem_Free(i0);
    PyMem_Free(singles);
    PyMem_Free(pcodes);
    PyMem_Free(scodes);
    PyMem_Free(a0);
    PyMem_Free(a1);
    PyMem_Free(cols);
    apply_scratch_free(&sc);
    PyMem_Free(wl.hits);
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

/* A new CanonKey(n, low, full), untracked like CanonKey.__init__ makes
 * it. */
static PyObject *
new_canon_key(PyObject *nobj, uint64_t low, PyObject *full)
{
    PyObject *obj, *h;
    h = PyLong_FromUnsignedLongLong(low);
    if (h == NULL)
        return NULL;
    obj = ck_type->tp_alloc(ck_type, 0);
    if (obj == NULL) {
        Py_DECREF(h);
        return NULL;
    }
    Py_INCREF(nobj);
    CK_SLOT(obj, CK_N) = nobj;
    CK_SLOT(obj, CK_H) = h;
    Py_INCREF(full);
    CK_SLOT(obj, CK_FULL) = full;
    PyObject_GC_UnTrack(obj);
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

/* One whole CanonContext._compute at the U2 / PU2 levels: pin separable
 * qubits (requantizing when anything was pinned), the U(2) orbit hash
 * and, at PU2 on a miss in u2_data (the U(2)-class tier's dict), the
 * candidate orderings (automorphisms: the given list) and the full
 * orbit hash.  Returns the key, the U(2) hash on a tier miss (None on a
 * hit or at U2; the caller updates the tier) and the orbit-hash seconds
 * when timed (else None). */
static PyObject *
fc_canon_key(PyObject *self, PyObject *args)
{
    PyObject *ps, *u2_data, *autos, *nobj, *u2 = NULL, *key = NULL;
    PyObject *miss = Py_None, *secs = NULL, *res = NULL;
    int pu2, timed, n, i, nbuf = 0, *orders = NULL;
    long tie_cap;
    Py_ssize_t perm_cap, m, pm, j, H, K, cap;
    double scale, hash_s = 0.0, t0 = 0.0;
    Py_buffer idx_b, amp_b, qamp_b;
    Py_buffer *bufs[3] = {&idx_b, &amp_b, &qamp_b};
    int64_t counts[64], *arena = NULL, *pidx, *scratch_i, *hp;
    double *pamp, *pq, *scratch_a;
    const int64_t *kidx;
    const double *kq;
    ia_pair *pairs;
    uint64_t *rows = NULL, ua, ub;

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
    cap = tie_cap > 1 ? (Py_ssize_t)tie_cap : 1;
    /* one allocation of 8-byte slots: pidx[m], pamp[m], pq[m],
     * scratch_i[2m], scratch_a[2m], pairs[m] (two slots each), hp[m] */
    arena = PyMem_Malloc((size_t)(10 * m + 1) * sizeof(int64_t));
    if (arena == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    pidx = arena;
    pamp = (double *)(pidx + m);
    pq = pamp + m;
    scratch_i = (int64_t *)(pq + m);
    scratch_a = (double *)(scratch_i + 2 * m);
    pairs = (ia_pair *)(scratch_a + 2 * m);
    hp = (int64_t *)(pairs + m);
    memcpy(pidx, idx_b.buf, (size_t)m * 8);
    memcpy(pamp, amp_b.buf, (size_t)m * 8);
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
        kidx = (const int64_t *)idx_b.buf;
        kq = (const double *)qamp_b.buf;
    }

    /* the U(2) orbit: X-translations of the identity ordering */
    if (timed)
        t0 = monotonic_seconds();
    H = heavy_positions(kq, pm, cap, hp);
    if (orbit_totals((const uint64_t *)kidx, 1, pm, hp, H, kq, &ua, &ub) < 0)
        goto done;
    if (timed)
        hash_s += monotonic_seconds() - t0;
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
    miss = u2;
    K = autos != Py_None ? parse_orderings(autos, n, &orders)
                         : orderings_core(nobj, n, kidx, kq, pm, perm_cap, H,
                                          &orders);
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
        hash_s += monotonic_seconds() - t0;
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
    if (timed) {
        secs = PyFloat_FromDouble(hash_s);
        if (secs == NULL)
            goto done;
    }
    res = PyTuple_Pack(3, key, miss, secs != NULL ? secs : Py_None);
done:
    Py_XDECREF(key);
    Py_XDECREF(u2);
    Py_XDECREF(secs);
    PyMem_Free(orders);
    PyMem_Free(rows);
    PyMem_Free(arena);
    while (nbuf > 0)
        PyBuffer_Release(bufs[--nbuf]);
    return res;
}

/* ------------------------------------------------------------------ */
/* astar_push(arcs, g, prev, g_pushed, heap, counter, h_of, ub, weight)*/
/*   -> (pruned, incumbent_prunes, generated)                          */
/* ------------------------------------------------------------------ */

/* g_pushed is keyed by interned states: with the state's precomputed
 * hash the lookups skip PackedState.__hash__ (Python level). */
#if PY_VERSION_HEX < 0x030D0000
#define DICT_GET_KNOWN(d, k, h) _PyDict_GetItem_KnownHash((d), (k), (h))
#define DICT_SET_KNOWN(d, k, v, h) _PyDict_SetItem_KnownHash((d), (k), (v), (h))
#else
#define DICT_GET_KNOWN(d, k, h) ((void)(h), PyDict_GetItemWithError((d), (k)))
#define DICT_SET_KNOWN(d, k, v, h) ((void)(h), PyDict_SetItem((d), (k), (v)))
#endif

/* hash(state), as PackedState.__hash__ (return self.hash64) makes it. */
static Py_hash_t
state_hash(PyObject *st)
{
    PyObject *hv = PyObject_TypeCheck(st, ps_type) ? PS_SLOT(st, PS_HASH64)
                                                   : NULL;
    if (hv != NULL && PyLong_CheckExact(hv)) {
        Py_ssize_t h = PyLong_AsSsize_t(hv);
        if (h != -1)
            return h;
        PyErr_Clear();  /* out of range or -1: let the slot decide */
    }
    return PyObject_Hash(st);
}

/* The CNOT cost of a move (Move.cost without the property call for the
 * kernel's own move kinds); -1 with an exception set on error. */
static long
move_cost(PyObject *move)
{
    PyObject *v;
    long cost;
    if (Py_IS_TYPE(move, cx_type))
        return 1;
    if (Py_IS_TYPE(move, mm_type)) {
        PyObject *ctl = PyObject_GetAttr(move, str_controls);
        Py_ssize_t k;
        if (ctl == NULL)
            return -1;
        k = PyObject_Length(ctl);
        Py_DECREF(ctl);
        if (k < 0)
            return -1;
        return k == 0 ? 0 : 1L << k;  /* constants.mcry_cnot_cost */
    }
    v = PyObject_GetAttr(move, str_cost);
    if (v == NULL)
        return -1;
    cost = PyLong_AsLong(v);
    Py_DECREF(v);
    return cost;
}

typedef struct {
    int64_t *i;
    double *a;
    Py_ssize_t cap;
} ent_scratch;

/* len(entangled_qubits_packed(st)): the cached set, or computed and
 * cached on the state as the Python function does. */
static Py_ssize_t
entangled_count(PyObject *st, ent_scratch *es)
{
    PyObject *cached, *tup;
    Py_buffer idx_b, amp_b;
    int n, count, ent[64];
    Py_ssize_t m;

    if (!PyObject_TypeCheck(st, ps_type)) {
        PyErr_SetString(PyExc_TypeError, "astar_push: not a PackedState");
        return -1;
    }
    cached = PS_SLOT(st, PS_ENTANGLED);
    if (cached != NULL && PyTuple_Check(cached))
        return PyTuple_GET_SIZE(cached);
    if (PS_SLOT(st, PS_N) == NULL || PS_SLOT(st, PS_IDX) == NULL ||
            PS_SLOT(st, PS_AMP) == NULL) {
        PyErr_SetString(PyExc_ValueError, "astar_push: unset slot");
        return -1;
    }
    n = (int)PyLong_AsLong(PS_SLOT(st, PS_N));
    if (n < 0 || n > 62) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "astar_push: bad width");
        return -1;
    }
    if (get_buf(PS_SLOT(st, PS_IDX), &idx_b, 0) < 0)
        return -1;
    if (get_buf(PS_SLOT(st, PS_AMP), &amp_b, 0) < 0) {
        PyBuffer_Release(&idx_b);
        return -1;
    }
    m = idx_b.len / 8;
    if (2 * m + 1 > es->cap) {
        Py_ssize_t want = 2 * m + 1;
        int64_t *gi = PyMem_Realloc(es->i, (size_t)want * sizeof(int64_t));
        double *ga;
        if (gi != NULL)
            es->i = gi;
        ga = gi != NULL ? PyMem_Realloc(es->a, (size_t)want * sizeof(double))
                        : NULL;
        if (ga == NULL) {
            PyBuffer_Release(&idx_b);
            PyBuffer_Release(&amp_b);
            PyErr_NoMemory();
            return -1;
        }
        es->a = ga;
        es->cap = want;
    }
    count = entangled_core(n, (const int64_t *)idx_b.buf,
                           (const double *)amp_b.buf, m, es->i, es->a, ent);
    PyBuffer_Release(&idx_b);
    PyBuffer_Release(&amp_b);
    tup = int_tuple(ent, count);
    if (tup == NULL)
        return -1;
    Py_XSETREF(PS_SLOT(st, PS_ENTANGLED), tup);
    return count;
}

/* heapq.heappush: append, then sift the new item up. */
static int
heap_push(PyObject *heap, PyObject *item)
{
    Py_ssize_t pos;
    PyObject **arr;
    if (PyList_Append(heap, item) < 0)
        return -1;
    pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent;
        int lt;
        arr = ((PyListObject *)heap)->ob_item;
        parent = arr[parentpos];
        Py_INCREF(parent);
        lt = PyObject_RichCompareBool(item, parent, Py_LT);
        Py_DECREF(parent);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        arr = ((PyListObject *)heap)->ob_item;
        arr[pos] = parent;
        arr[parentpos] = item;
        pos = parentpos;
    }
    return 0;
}

/* A*'s per-child loop over one expansion's arcs (twin of the Python
 * loop in astar.AStarRun._main): the g_pushed check and update, the
 * heuristic (h_of None = the default ceil(k/2) bound on the entangled
 * set, else called back), the incumbent prune against ub, and the
 * open-list entry (f, -g, tiebreak, g + h, state, prev, move), untracked
 * and pushed as heapq pushes it (equal f pops the deepest entry first).
 * Returns the counter deltas. */
static PyObject *
fc_astar_push(PyObject *self, PyObject *args)
{
    PyObject *arcs, *prev, *g_pushed, *heap, *counter, *h_of, *ub, *weight;
    PyObject *eps = NULL;
    long g;
    Py_ssize_t a, pruned = 0, prunes = 0, generated = 0;
    double wd, thr = 0.0;
    iternextfunc next_tie;
    ent_scratch es = {NULL, NULL, 0};

    if (!PyArg_ParseTuple(args, "OlOOOOOOO", &arcs, &g, &prev, &g_pushed,
                          &heap, &counter, &h_of, &ub, &weight))
        return NULL;
    if (ps_type == NULL || cx_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "astar_push: bind_kernel() was not called");
        return NULL;
    }
    if (!PyList_Check(arcs) || !PyDict_Check(g_pushed) ||
            !PyList_Check(heap) || Py_TYPE(counter)->tp_iternext == NULL) {
        PyErr_SetString(PyExc_TypeError, "astar_push: bad argument types");
        return NULL;
    }
    next_tie = Py_TYPE(counter)->tp_iternext;
    wd = PyFloat_AsDouble(weight);
    if (wd == -1.0 && PyErr_Occurred())
        return NULL;
    if (ub != Py_None) {
        thr = PyFloat_AsDouble(ub);
        if (thr == -1.0 && PyErr_Occurred())
            return NULL;
        thr = thr - 1e-9;  /* self._ub - 1e-9 */
    }
    for (a = 0; a < PyList_GET_SIZE(arcs); a++) {
        PyObject *arc = PyList_GET_ITEM(arcs, a), *move, *nxt, *existing;
        PyObject *g2o, *ho = NULL, *fo = NULL, *uo = NULL, *tie, *entry;
        PyObject *neg;
        Py_hash_t hash;
        long cost, g2;
        double hd = 0.0;
        int fast, rc;

        if (!PyTuple_Check(arc) || PyTuple_GET_SIZE(arc) != 2) {
            PyErr_SetString(PyExc_TypeError, "astar_push: bad arc");
            goto fail;
        }
        move = PyTuple_GET_ITEM(arc, 0);
        nxt = PyTuple_GET_ITEM(arc, 1);
        cost = move_cost(move);
        if (cost == -1 && PyErr_Occurred())
            goto fail;
        g2 = g + cost;
        hash = state_hash(nxt);
        if (hash == -1)
            goto fail;
        existing = DICT_GET_KNOWN(g_pushed, nxt, hash);
        if (existing != NULL) {
            int ge;
            if (PyLong_CheckExact(existing)) {
                long ev = PyLong_AsLong(existing);
                if (ev == -1 && PyErr_Occurred())
                    goto fail;
                ge = g2 >= ev;
            }
            else {
                PyObject *tmp = PyLong_FromLong(g2);
                if (tmp == NULL)
                    goto fail;
                Py_INCREF(existing);
                ge = PyObject_RichCompareBool(tmp, existing, Py_GE);
                Py_DECREF(existing);
                Py_DECREF(tmp);
                if (ge < 0)
                    goto fail;
            }
            if (ge) {
                pruned++;
                continue;
            }
        }
        else if (PyErr_Occurred()) {
            goto fail;
        }
        g2o = PyLong_FromLong(g2);
        if (g2o == NULL)
            goto fail;
        if (DICT_SET_KNOWN(g_pushed, nxt, g2o, hash) < 0) {
            Py_DECREF(g2o);
            goto fail;
        }
        if (h_of == Py_None) {
            Py_ssize_t k = entangled_count(nxt, &es);
            if (k < 0) {
                Py_DECREF(g2o);
                goto fail;
            }
            hd = (double)((k + 1) / 2);
            fast = 1;
        }
        else {
            ho = PyObject_CallOneArg(h_of, nxt);
            if (ho == NULL) {
                Py_DECREF(g2o);
                goto fail;
            }
            fast = PyFloat_CheckExact(ho);
            if (fast)
                hd = PyFloat_AS_DOUBLE(ho);
        }
        if (fast) {
            double ud = (double)g2 + hd;
            if (ub != Py_None && ud > thr) {
                /* the admissible h proves no completion through this
                 * state beats the incumbent */
                prunes++;
                Py_DECREF(g2o);
                Py_XDECREF(ho);
                continue;
            }
            fo = PyFloat_FromDouble((double)g2 + wd * hd);
            uo = PyFloat_FromDouble(ud);
        }
        else {
            /* a heuristic returning a non-float: Python arithmetic */
            PyObject *wh;
            uo = PyNumber_Add(g2o, ho);
            if (uo != NULL && ub != Py_None) {
                PyObject *limit;
                int gt = -1;
                if (eps == NULL)
                    eps = PyFloat_FromDouble(1e-9);
                limit = eps != NULL ? PyNumber_Subtract(ub, eps) : NULL;
                if (limit != NULL) {
                    gt = PyObject_RichCompareBool(uo, limit, Py_GT);
                    Py_DECREF(limit);
                }
                if (gt != 0) {
                    Py_DECREF(g2o);
                    Py_DECREF(ho);
                    Py_DECREF(uo);
                    if (gt < 0)
                        goto fail;
                    prunes++;
                    continue;
                }
            }
            wh = uo != NULL ? PyNumber_Multiply(weight, ho) : NULL;
            fo = wh != NULL ? PyNumber_Add(g2o, wh) : NULL;
            Py_XDECREF(wh);
        }
        Py_XDECREF(ho);
        tie = (fo != NULL && uo != NULL) ? next_tie(counter) : NULL;
        if (tie == NULL) {
            if (fo != NULL && uo != NULL && !PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError,
                                "astar_push: tiebreak counter exhausted");
            Py_DECREF(g2o);
            Py_XDECREF(fo);
            Py_XDECREF(uo);
            goto fail;
        }
        Py_DECREF(g2o);
        neg = PyLong_FromLong(-g2);
        entry = neg != NULL ? PyTuple_Pack(7, fo, neg, tie, uo, nxt, prev,
                                           move) : NULL;
        Py_DECREF(fo);
        Py_XDECREF(neg);
        Py_DECREF(tie);
        Py_DECREF(uo);
        if (entry == NULL)
            goto fail;
        /* numbers, states and moves: never part of a cycle */
        PyObject_GC_UnTrack(entry);
        rc = heap_push(heap, entry);
        Py_DECREF(entry);
        if (rc < 0)
            goto fail;
        generated++;
    }
    PyMem_Free(es.i);
    PyMem_Free(es.a);
    Py_XDECREF(eps);
    return Py_BuildValue("(nnn)", pruned, prunes, generated);
fail:
    PyMem_Free(es.i);
    PyMem_Free(es.a);
    Py_XDECREF(eps);
    return NULL;
}

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

static int
u64map_ass_subscript(U64MapObject *self, PyObject *keyobj, PyObject *val)
{
    uint64_t key;
    Py_ssize_t e, slot;
    if (u64map_key_from_obj(keyobj, &key) < 0)
        return -1;
    e = u64map_probe(self, key, &slot);
    if (val == NULL) {  /* delete */
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
     "bind_kernel(PackedState, MergeMove, CXMove, CanonKey, refine): the "
     "kernel classes and the tie-refinement callback."},
    {"successors", fc_successors, METH_VARARGS,
     "successors(table, hash_fn, ps, x_moves, cx_moves, cx_controls, "
     "cx_phases, cx_targets, max_controls, neighbor_masks, atol, rtol, "
     "scale) -> (arcs, interned, hits, collisions)."},
    {"astar_push", fc_astar_push, METH_VARARGS,
     "astar_push(arcs, g, prev, g_pushed, heap, counter, h_of, ub, weight) "
     "-> (pruned, incumbent_prunes, generated)."},
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
    if (PyType_Ready(&U64MapType) < 0)
        return NULL;
    str_target = PyUnicode_InternFromString("target");
    str_theta = PyUnicode_InternFromString("theta");
    str_controls = PyUnicode_InternFromString("controls");
    str_cost = PyUnicode_InternFromString("cost");
    empty_tuple = PyTuple_New(0);
    if (str_target == NULL || str_theta == NULL || str_controls == NULL ||
            str_cost == NULL || empty_tuple == NULL)
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
    return mod;
}
