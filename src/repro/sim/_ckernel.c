/* Compiled event-calendar kernel for repro.sim (the "compiled" backend).
 *
 * This module mirrors the pure-python kernel in repro/sim/engine.py with
 * the event calendar, the Timeout lifecycle and the run loops moved into
 * C.  The contract is *bit identity* with the reference kernel: the heap
 * is keyed on (when, priority << 56 | seq) and the sequence counter makes
 * every key unique, so the calendar induces a total order on events and
 * any correct binary heap — heapq's or this one's — pops the same
 * sequence.  All floating-point arithmetic is the same IEEE-754 double
 * math CPython floats use, so computed due times are identical bit
 * patterns.
 *
 * Two types are exported:
 *
 *   Timeout — the C counterpart of repro.sim.engine.Timeout: born
 *     triggered, fields laid out as C struct members but exposed under
 *     the same names (_value/_ok/_triggered/_defused/_inline/
 *     _scheduled_at/callbacks/env/delay) plus the read-only
 *     triggered/processed/ok/value properties, so every pure-python
 *     consumer (Process._advance, all_of/any_of, resources) treats it
 *     exactly like the python class.
 *
 *   Kernel — the calendar: a C array binary heap of
 *     {double when; uint64 key; PyObject *event}, the clock, the shared
 *     sequence counter, and C implementations of timeout/schedule/
 *     peek/step/run_core including the refcount-guarded freelist
 *     recycling (Py_REFCNT(event) == 1 here is exactly
 *     getrefcount(event) == 2 in the python loop: the popped local plus
 *     getrefcount's argument).
 *
 * The wrapper class lives in repro/sim/backend.py; it binds the Kernel's
 * methods straight into instance slots so python callers dispatch into C
 * without an intermediate python frame.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

#define CK_POOL_MAX 256            /* matches engine._POOL_MAX */
#define CK_PRIO_SHIFT 56           /* matches engine._PRIO_SHIFT */
#define CK_NORMAL 1ULL

/* set by configure(); the kernel raises it from Timeout.succeed/fail */
static PyObject *ck_EventAlreadyTriggered = NULL;

/* interned attribute names for dispatching generic (python Event) objects */
static PyObject *s_callbacks = NULL;
static PyObject *s_ok = NULL;
static PyObject *s_defused = NULL;
static PyObject *s_value = NULL;
static PyObject *s_scheduled_at = NULL;

/* ================================================================ */
/* Timeout                                                           */
/* ================================================================ */

typedef struct {
    PyObject_HEAD
    PyObject *env;        /* the owning (wrapper) Environment */
    PyObject *callbacks;  /* list while pending, None once processed */
    PyObject *value;
    double scheduled_at;
    double delay;
    char ok;
    char triggered;
    char defused;
    char inline_flag;
} CTimeout;

static PyTypeObject CTimeout_Type;  /* forward */

static int
CTimeout_traverse(CTimeout *self, visitproc visit, void *arg)
{
    Py_VISIT(self->env);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
CTimeout_clear_impl(CTimeout *self)
{
    Py_CLEAR(self->env);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
CTimeout_dealloc(CTimeout *self)
{
    PyObject_GC_UnTrack(self);
    CTimeout_clear_impl(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
CTimeout_repr(CTimeout *self)
{
    const char *state = (self->callbacks == Py_None) ? "processed"
                        : (self->triggered ? "triggered" : "pending");
    return PyUnicode_FromFormat("<Timeout %s at %p>", state, (void *)self);
}

static PyObject *
CTimeout_get_triggered(CTimeout *self, void *closure)
{
    return PyBool_FromLong(self->triggered);
}

static PyObject *
CTimeout_get_processed(CTimeout *self, void *closure)
{
    return PyBool_FromLong(self->callbacks == Py_None);
}

static PyObject *
CTimeout_get_ok(CTimeout *self, void *closure)
{
    return PyBool_FromLong(self->ok);
}

static PyObject *
CTimeout_get_value(CTimeout *self, void *closure)
{
    PyObject *v = self->value ? self->value : Py_None;
    Py_INCREF(v);
    return v;
}

/* A Timeout is born triggered, so succeed/fail always raise — exactly
 * what Event.succeed/fail do for an already-triggered event. */
static PyObject *
CTimeout_succeed(CTimeout *self, PyObject *args, PyObject *kwargs)
{
    PyErr_Format(ck_EventAlreadyTriggered, "%R already triggered",
                 (PyObject *)self);
    return NULL;
}

static PyObject *
CTimeout_fail(CTimeout *self, PyObject *args, PyObject *kwargs)
{
    PyErr_Format(ck_EventAlreadyTriggered, "%R already triggered",
                 (PyObject *)self);
    return NULL;
}

static PyObject *
CTimeout_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyErr_SetString(PyExc_TypeError,
                    "cannot construct Timeout directly; use "
                    "Environment.timeout()");
    return NULL;
}

static PyMemberDef CTimeout_members[] = {
    {"env", T_OBJECT, offsetof(CTimeout, env), 0,
     "owning environment"},
    {"callbacks", T_OBJECT, offsetof(CTimeout, callbacks), 0,
     "pending callbacks (None once processed)"},
    {"_value", T_OBJECT, offsetof(CTimeout, value), 0, NULL},
    {"_scheduled_at", T_DOUBLE, offsetof(CTimeout, scheduled_at), 0, NULL},
    {"delay", T_DOUBLE, offsetof(CTimeout, delay), 0, NULL},
    {"_ok", T_BOOL, offsetof(CTimeout, ok), 0, NULL},
    {"_triggered", T_BOOL, offsetof(CTimeout, triggered), 0, NULL},
    {"_defused", T_BOOL, offsetof(CTimeout, defused), 0, NULL},
    {"_inline", T_BOOL, offsetof(CTimeout, inline_flag), 0, NULL},
    {NULL}
};

static PyGetSetDef CTimeout_getset[] = {
    {"triggered", (getter)CTimeout_get_triggered, NULL,
     "True once succeed() or fail() has been called.", NULL},
    {"processed", (getter)CTimeout_get_processed, NULL,
     "True once the environment has run this event's callbacks.", NULL},
    {"ok", (getter)CTimeout_get_ok, NULL,
     "True if the event succeeded.", NULL},
    {"value", (getter)CTimeout_get_value, NULL,
     "The success value carried by the event.", NULL},
    {NULL}
};

static PyMethodDef CTimeout_methods[] = {
    {"succeed", (PyCFunction)CTimeout_succeed,
     METH_VARARGS | METH_KEYWORDS, NULL},
    {"fail", (PyCFunction)CTimeout_fail,
     METH_VARARGS | METH_KEYWORDS, NULL},
    {NULL}
};

static PyTypeObject CTimeout_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Timeout",
    .tp_basicsize = sizeof(CTimeout),
    .tp_dealloc = (destructor)CTimeout_dealloc,
    .tp_repr = (reprfunc)CTimeout_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C Timeout: fires automatically `delay` units from creation.",
    .tp_traverse = (traverseproc)CTimeout_traverse,
    .tp_clear = (inquiry)CTimeout_clear_impl,
    .tp_methods = CTimeout_methods,
    .tp_members = CTimeout_members,
    .tp_getset = CTimeout_getset,
    .tp_new = CTimeout_new,
};

/* ================================================================ */
/* Kernel                                                            */
/* ================================================================ */

typedef struct {
    double when;
    unsigned long long key;
    PyObject *event;  /* strong reference */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    double now;
    unsigned long long seq;
    int fastlane;
    HeapEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    PyObject *env;            /* wrapper Environment (set via set_env) */
    PyObject *event_pool;     /* the wrapper's python list of plain Events */
    PyObject *py_event_type;  /* exact python Event class, for recycling */
    CTimeout *tpool[CK_POOL_MAX];  /* C Timeout freelist (strong refs) */
    Py_ssize_t tpool_len;
    unsigned long long pool_hits;
    unsigned long long pool_allocs;
} Kernel;

static PyTypeObject Kernel_Type;  /* forward */

/* -- heap -------------------------------------------------------- */

static inline int
entry_lt(double a_when, unsigned long long a_key,
         const HeapEntry *b)
{
    return a_when < b->when || (a_when == b->when && a_key < b->key);
}

static int
heap_push(Kernel *k, double when, unsigned long long key, PyObject *event)
{
    /* steals a reference to event */
    if (k->heap_len == k->heap_cap) {
        Py_ssize_t cap = k->heap_cap ? k->heap_cap * 2 : 256;
        HeapEntry *grown = PyMem_Realloc(k->heap, cap * sizeof(HeapEntry));
        if (grown == NULL) {
            Py_DECREF(event);
            PyErr_NoMemory();
            return -1;
        }
        k->heap = grown;
        k->heap_cap = cap;
    }
    Py_ssize_t pos = k->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        HeapEntry *p = &k->heap[parent];
        if (entry_lt(when, key, p)) {
            k->heap[pos] = *p;
            pos = parent;
        } else {
            break;
        }
    }
    k->heap[pos].when = when;
    k->heap[pos].key = key;
    k->heap[pos].event = event;
    return 0;
}

static PyObject *
heap_pop(Kernel *k, double *when_out)
{
    /* caller guarantees heap_len > 0; returns the (strong) event ref */
    HeapEntry root = k->heap[0];
    Py_ssize_t n = --k->heap_len;
    if (n > 0) {
        HeapEntry last = k->heap[n];
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            Py_ssize_t right = child + 1;
            if (right < n
                && entry_lt(k->heap[right].when, k->heap[right].key,
                            &k->heap[child]))
                child = right;
            if (entry_lt(k->heap[child].when, k->heap[child].key, &last)) {
                k->heap[pos] = k->heap[child];
                pos = child;
            } else {
                break;
            }
        }
        k->heap[pos] = last;
    }
    *when_out = root.when;
    return root.event;
}

/* -- gc plumbing -------------------------------------------------- */

static int
Kernel_traverse(Kernel *self, visitproc visit, void *arg)
{
    Py_VISIT(self->env);
    Py_VISIT(self->event_pool);
    Py_VISIT(self->py_event_type);
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        Py_VISIT(self->heap[i].event);
    for (Py_ssize_t i = 0; i < self->tpool_len; i++)
        Py_VISIT((PyObject *)self->tpool[i]);
    return 0;
}

static int
Kernel_clear_impl(Kernel *self)
{
    Py_CLEAR(self->env);
    Py_CLEAR(self->event_pool);
    Py_CLEAR(self->py_event_type);
    while (self->heap_len > 0) {
        Py_ssize_t i = --self->heap_len;
        Py_CLEAR(self->heap[i].event);
    }
    while (self->tpool_len > 0) {
        Py_ssize_t i = --self->tpool_len;
        CTimeout *t = self->tpool[i];
        self->tpool[i] = NULL;
        Py_XDECREF((PyObject *)t);
    }
    return 0;
}

static void
Kernel_dealloc(Kernel *self)
{
    PyObject_GC_UnTrack(self);
    Kernel_clear_impl(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Kernel_init(Kernel *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"initial_time", "fastlane", "event_pool",
                             "event_type", NULL};
    double initial_time;
    int fastlane;
    PyObject *event_pool;
    PyObject *event_type;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "dpOO", kwlist,
                                     &initial_time, &fastlane,
                                     &event_pool, &event_type))
        return -1;
    if (!PyList_CheckExact(event_pool)) {
        PyErr_SetString(PyExc_TypeError, "event_pool must be a list");
        return -1;
    }
    if (!PyType_Check(event_type)) {
        PyErr_SetString(PyExc_TypeError, "event_type must be a class");
        return -1;
    }
    self->now = initial_time;
    self->seq = 0;
    self->fastlane = fastlane;
    self->pool_hits = 0;
    self->pool_allocs = 0;
    Py_INCREF(event_pool);
    Py_XSETREF(self->event_pool, event_pool);
    Py_INCREF(event_type);
    Py_XSETREF(self->py_event_type, event_type);
    return 0;
}

static PyObject *
Kernel_set_env(Kernel *self, PyObject *env)
{
    Py_INCREF(env);
    Py_XSETREF(self->env, env);
    Py_RETURN_NONE;
}

/* -- scheduling --------------------------------------------------- */

static CTimeout *
ctimeout_fresh(Kernel *k, PyObject *value)
{
    CTimeout *t = PyObject_GC_New(CTimeout, &CTimeout_Type);
    if (t == NULL)
        return NULL;
    PyObject *env = k->env ? k->env : Py_None;
    Py_INCREF(env);
    t->env = env;
    t->callbacks = PyList_New(0);
    if (t->callbacks == NULL) {
        t->value = NULL;
        Py_DECREF(t);
        return NULL;
    }
    Py_INCREF(value);
    t->value = value;
    t->scheduled_at = 0.0;
    t->delay = 0.0;
    t->ok = 1;
    t->triggered = 1;
    t->defused = 0;
    t->inline_flag = 0;
    PyObject_GC_Track((PyObject *)t);
    return t;
}

static PyObject *
Kernel_timeout(Kernel *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"delay", "value", NULL};
    PyObject *delay_obj;
    PyObject *value = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|O", kwlist,
                                     &delay_obj, &value))
        return NULL;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0.0) {
        PyErr_Format(PyExc_ValueError, "negative delay: %R", delay_obj);
        return NULL;
    }
    CTimeout *t;
    if (self->fastlane && self->tpool_len > 0) {
        self->pool_hits++;
        t = self->tpool[--self->tpool_len];
        PyObject *cbs = PyList_New(0);
        if (cbs == NULL) {
            self->tpool[self->tpool_len++] = t;
            return NULL;
        }
        Py_XSETREF(t->callbacks, cbs);
        Py_INCREF(value);
        Py_XSETREF(t->value, value);
        t->ok = 1;
        t->triggered = 1;
        t->defused = 0;
        t->inline_flag = 0;
    } else {
        if (self->fastlane)
            self->pool_allocs++;
        t = ctimeout_fresh(self, value);
        if (t == NULL)
            return NULL;
    }
    t->delay = delay;
    unsigned long long seq = self->seq++;
    double when = self->now + delay;
    t->scheduled_at = when;
    Py_INCREF((PyObject *)t);  /* heap's reference */
    if (heap_push(self, when, (CK_NORMAL << CK_PRIO_SHIFT) | seq,
                  (PyObject *)t) < 0) {
        Py_DECREF((PyObject *)t);
        return NULL;
    }
    return (PyObject *)t;
}

static int
stamp_scheduled_at(PyObject *event, PyObject *when_obj, double when)
{
    if (Py_TYPE(event) == &CTimeout_Type) {
        ((CTimeout *)event)->scheduled_at = when;
        return 0;
    }
    return PyObject_SetAttr(event, s_scheduled_at, when_obj);
}

static PyObject *
Kernel_schedule(Kernel *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"event", "delay", "priority", NULL};
    PyObject *event;
    PyObject *delay_obj = NULL;
    long priority = (long)CK_NORMAL;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|$Ol", kwlist,
                                     &event, &delay_obj, &priority))
        return NULL;
    double delay = 0.0;
    if (delay_obj != NULL) {
        delay = PyFloat_AsDouble(delay_obj);
        if (delay == -1.0 && PyErr_Occurred())
            return NULL;
    }
    unsigned long long seq = self->seq++;
    double when = self->now + delay;
    PyObject *when_obj = PyFloat_FromDouble(when);
    if (when_obj == NULL)
        return NULL;
    if (stamp_scheduled_at(event, when_obj, when) < 0) {
        Py_DECREF(when_obj);
        return NULL;
    }
    Py_DECREF(when_obj);
    Py_INCREF(event);
    if (heap_push(self, when,
                  ((unsigned long long)priority << CK_PRIO_SHIFT) | seq,
                  event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_peek(Kernel *self, PyObject *Py_UNUSED(ignored))
{
    if (self->heap_len == 0)
        return PyFloat_FromDouble(Py_HUGE_VAL);
    return PyFloat_FromDouble(self->heap[0].when);
}

/* -- dispatch ----------------------------------------------------- */

static void
raise_event_value(PyObject *value)
{
    if (PyExceptionInstance_Check(value)) {
        PyErr_SetObject(PyExceptionInstance_Class(value), value);
    } else if (PyExceptionClass_Check(value)) {
        PyErr_SetObject(value, NULL);
    } else {
        PyErr_Format(PyExc_TypeError,
                     "exceptions must derive from BaseException, not %R",
                     value);
    }
}

static int
run_callbacks(PyObject *callbacks, PyObject *event)
{
    /* mirrors `for callback in callbacks: callback(event)` over a list,
     * including python's live-size semantics if a callback appends */
    if (PyList_CheckExact(callbacks)) {
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
            PyObject *cb = PyList_GET_ITEM(callbacks, i);
            Py_INCREF(cb);
            PyObject *res = PyObject_CallOneArg(cb, event);
            Py_DECREF(cb);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
        }
        return 0;
    }
    PyObject *it = PyObject_GetIter(callbacks);
    if (it == NULL)
        return -1;
    PyObject *cb;
    while ((cb = PyIter_Next(it)) != NULL) {
        PyObject *res = PyObject_CallOneArg(cb, event);
        Py_DECREF(cb);
        if (res == NULL) {
            Py_DECREF(it);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

static int
dispatch_event(Kernel *self, PyObject *event)
{
    /* one step() body: detach callbacks, run them, surface unhandled
     * failures — identical control flow to the python loop */
    if (Py_TYPE(event) == &CTimeout_Type) {
        CTimeout *t = (CTimeout *)event;
        PyObject *callbacks = t->callbacks;
        Py_INCREF(callbacks);
        Py_INCREF(Py_None);
        Py_XSETREF(t->callbacks, Py_None);
        int had = (callbacks != Py_None
                   && (!PyList_CheckExact(callbacks)
                       || PyList_GET_SIZE(callbacks) > 0));
        if (had && run_callbacks(callbacks, event) < 0) {
            Py_DECREF(callbacks);
            return -1;
        }
        Py_DECREF(callbacks);
        if (!t->ok && !t->defused) {
            PyObject *value = t->value ? t->value : Py_None;
            Py_INCREF(value);
            raise_event_value(value);
            Py_DECREF(value);
            return -1;
        }
        return 0;
    }
    PyObject *callbacks = PyObject_GetAttr(event, s_callbacks);
    if (callbacks == NULL)
        return -1;
    if (PyObject_SetAttr(event, s_callbacks, Py_None) < 0) {
        Py_DECREF(callbacks);
        return -1;
    }
    if (callbacks != Py_None) {
        int truthy = PyList_CheckExact(callbacks)
            ? (PyList_GET_SIZE(callbacks) > 0)
            : PyObject_IsTrue(callbacks);
        if (truthy < 0) {
            Py_DECREF(callbacks);
            return -1;
        }
        if (truthy && run_callbacks(callbacks, event) < 0) {
            Py_DECREF(callbacks);
            return -1;
        }
    }
    Py_DECREF(callbacks);
    PyObject *ok = PyObject_GetAttr(event, s_ok);
    if (ok == NULL)
        return -1;
    int ok_b = PyObject_IsTrue(ok);
    Py_DECREF(ok);
    if (ok_b < 0)
        return -1;
    if (!ok_b) {
        PyObject *defused = PyObject_GetAttr(event, s_defused);
        if (defused == NULL)
            return -1;
        int d = PyObject_IsTrue(defused);
        Py_DECREF(defused);
        if (d < 0)
            return -1;
        if (!d) {
            PyObject *value = PyObject_GetAttr(event, s_value);
            if (value == NULL)
                return -1;
            raise_event_value(value);
            Py_DECREF(value);
            return -1;
        }
    }
    return 0;
}

static PyObject *
Kernel_step(Kernel *self, PyObject *Py_UNUSED(ignored))
{
    if (self->heap_len == 0) {
        /* matches heappop([]) in the reference step() */
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    double when;
    PyObject *event = heap_pop(self, &when);
    self->now = when;
    int rc = dispatch_event(self, event);
    Py_DECREF(event);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
run_loop(Kernel *self, double boundary)
{
    /* the inlined run() body, freelist recycling included */
    int recycle = self->fastlane;
    while (self->heap_len && self->heap[0].when <= boundary) {
        double when;
        PyObject *event = heap_pop(self, &when);
        self->now = when;
        if (dispatch_event(self, event) < 0) {
            Py_DECREF(event);
            return -1;
        }
        if (recycle) {
            if (Py_TYPE(event) == &CTimeout_Type) {
                if (self->tpool_len < CK_POOL_MAX && Py_REFCNT(event) == 1) {
                    CTimeout *t = (CTimeout *)event;
                    Py_INCREF(Py_None);
                    Py_XSETREF(t->value, Py_None);  /* don't pin the payload */
                    self->tpool[self->tpool_len++] = t;  /* keeps our ref */
                    continue;
                }
            } else if ((PyObject *)Py_TYPE(event) == self->py_event_type) {
                if (PyList_GET_SIZE(self->event_pool) < CK_POOL_MAX
                    && Py_REFCNT(event) == 1) {
                    if (PyObject_SetAttr(event, s_value, Py_None) < 0) {
                        Py_DECREF(event);
                        return -1;
                    }
                    if (PyList_Append(self->event_pool, event) < 0) {
                        Py_DECREF(event);
                        return -1;
                    }
                }
            }
        }
        Py_DECREF(event);
    }
    return 0;
}

static PyObject *
Kernel_run_core(Kernel *self, PyObject *arg)
{
    double stop_at = PyFloat_AsDouble(arg);
    if (stop_at == -1.0 && PyErr_Occurred())
        return NULL;
    if (run_loop(self, stop_at) < 0)
        return NULL;
    if (!isinf(stop_at) && stop_at > self->now)
        self->now = stop_at;
    Py_RETURN_NONE;
}

static PyMemberDef Kernel_members[] = {
    {"now", T_DOUBLE, offsetof(Kernel, now), READONLY,
     "current simulation time"},
    {"seq", T_ULONGLONG, offsetof(Kernel, seq), READONLY,
     "calendar entries created (the FIFO tie-break counter)"},
    {"fastlane", T_INT, offsetof(Kernel, fastlane), READONLY, NULL},
    {"pool_hits", T_ULONGLONG, offsetof(Kernel, pool_hits), READONLY,
     "Timeouts served from the C freelist"},
    {"pool_allocs", T_ULONGLONG, offsetof(Kernel, pool_allocs), READONLY,
     "fresh Timeout allocations on pooled paths"},
    {NULL}
};

static PyMethodDef Kernel_methods[] = {
    {"set_env", (PyCFunction)Kernel_set_env, METH_O,
     "Bind the wrapper Environment stamped onto new Timeouts."},
    {"timeout", (PyCFunction)Kernel_timeout, METH_VARARGS | METH_KEYWORDS,
     "timeout(delay, value=None) -> Timeout due `delay` units from now."},
    {"schedule", (PyCFunction)Kernel_schedule, METH_VARARGS | METH_KEYWORDS,
     "schedule(event, *, delay=0.0, priority=NORMAL)"},
    {"peek", (PyCFunction)Kernel_peek, METH_NOARGS,
     "Time of the next scheduled event, or inf."},
    {"step", (PyCFunction)Kernel_step, METH_NOARGS,
     "Process exactly one event."},
    {"run_core", (PyCFunction)Kernel_run_core, METH_O,
     "Run every event due at or before the float boundary."},
    {NULL}
};

static PyTypeObject Kernel_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C event calendar: heap, clock, sequence counter, run loops.",
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear_impl,
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_init = (initproc)Kernel_init,
    .tp_new = PyType_GenericNew,
};

/* ================================================================ */
/* module                                                            */
/* ================================================================ */

static PyObject *
ckernel_configure(PyObject *module, PyObject *exc_type)
{
    if (!PyExceptionClass_Check(exc_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "configure() expects the EventAlreadyTriggered "
                        "exception class");
        return NULL;
    }
    Py_INCREF(exc_type);
    Py_XSETREF(ck_EventAlreadyTriggered, exc_type);
    Py_RETURN_NONE;
}

static PyMethodDef ckernel_methods[] = {
    {"configure", (PyCFunction)ckernel_configure, METH_O,
     "Install the kernel's exception class (called once by backend.py)."},
    {NULL}
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "Compiled event-calendar kernel (bit-identical to "
             "repro.sim.engine).",
    .m_size = -1,
    .m_methods = ckernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    s_callbacks = PyUnicode_InternFromString("callbacks");
    s_ok = PyUnicode_InternFromString("_ok");
    s_defused = PyUnicode_InternFromString("_defused");
    s_value = PyUnicode_InternFromString("_value");
    s_scheduled_at = PyUnicode_InternFromString("_scheduled_at");
    if (!s_callbacks || !s_ok || !s_defused || !s_value || !s_scheduled_at)
        return NULL;
    if (PyType_Ready(&CTimeout_Type) < 0)
        return NULL;
    if (PyType_Ready(&Kernel_Type) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CTimeout_Type);
    if (PyModule_AddObject(module, "Timeout",
                           (PyObject *)&CTimeout_Type) < 0) {
        Py_DECREF(&CTimeout_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&Kernel_Type);
    if (PyModule_AddObject(module, "Kernel", (PyObject *)&Kernel_Type) < 0) {
        Py_DECREF(&Kernel_Type);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "POOL_MAX", CK_POOL_MAX) < 0
        || PyModule_AddIntConstant(module, "PRIO_SHIFT", CK_PRIO_SHIFT) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
