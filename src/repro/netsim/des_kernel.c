/* des_kernel.c — repro.netsim's discrete-event simulator: the per-hop
 * events and the closed-loop Jacobi replay, compiled into the same shared
 * object as repro/mapping/refine_kernel.c, and the flow estimator's
 * per-link loads on a grid.
 *
 * Nine entry points: des_new and des_free make and free an engine;
 * des_run fires its events; des_app registers a closed-loop application;
 * des_links, des_message and des_stats read its channels, one message and
 * its delivery records; des_drop marks a message finally dropped.
 * grid_link_loads, which needs no engine, is repro/netsim/flow.py's
 * _grid_link_loads in one call: the loads each directed link of a mesh or
 * torus carries under dimension-ordered routing, summed in the reference's
 * order.
 *
 * The engine owns one event queue of (kind, id, hop) records and runs five
 * kinds of them itself: injections (the adaptive route choice, then the
 * head arrival at hop 0), head arrivals (which start a transmission or
 * queue), link frees, deliveries and the compute steps of registered
 * applications. A sixth kind belongs to Python: a record that points to a
 * (fn, args) slot the caller keeps. The queue is keyed by instant: a
 * binary heap of the distinct pending times, a FIFO of records per time
 * (index-linked over one node pool, like the channel FIFOs), and an exact
 * map from a time's bits (-0.0 folded into +0.0) to its instant, which a
 * push consults only when its time is not the last push's. Records pop in
 * time order, and at one time in push order: the (time, seq) order of the
 * heapq in repro.netsim.eventqueue. A replay fires many records per time
 * (a zero-alpha head arrival lands at the current time, and equal
 * transfers free their links together), so most pops and pushes touch no
 * heap. An event that would be scheduled at a non-finite time stops the
 * run with RC_TIME, which the wrapper raises as the reference does.
 *
 * An application (repro.netsim.appsim.IterativeApplication) registers once
 * with des_app: its CSR neighbour lists of the edges that carry traffic,
 * message sizes, assignment, compute times and iteration count. The
 * engine then runs the whole closed loop: a finished compute sends to the
 * neighbours in CSR order, a delivery counts an arrival, and a task whose
 * compute and arrivals are in advances (a neighbour is never more than one
 * iteration ahead, so two arrival counters per task suffice). Message ids
 * come from one counter shared with Python's sends. Every delivery, of
 * either kind of message, is recorded here in delivery order (latency,
 * size, and the byte and hop-byte totals); the wrapper copies the records
 * into MessageStats when des_run returns. On Torus/Mesh machines the
 * engine walks an application's routes from the grid's shape itself, as
 * GridTopology.route_axis_order does; other machines hand it route sets.
 *
 * Python does not call in per message. It appends its work to three
 * buffers (link bandwidth overrides, new route sets, and pushes: Python
 * records, sends and re-injections, in program order) and publishes them
 * in io[]; des_run applies them first, then pops records until something
 * needs Python and returns it, encoded as code | id << 3: a Python record
 * (id = slot), the delivery of a Python send or an overflow at a full
 * buffer that needs the seeded jitter or ends in a final drop (id =
 * message), or a stop (empty queue, event limit or deadline). An
 * application message's overflow without jitter is retransmitted here,
 * after retry_delay * pow(retry_backoff, attempts) as CPython's float **
 * computes it. The popped record is already counted. Route-set ids are
 * sequential, so Python assigns them itself.
 *
 * Telemetry is plain counts in io[], bumped on every run, profiled or not,
 * where the Python body counts its netsim.* counters; a profiled wrapper
 * takes them at every return.
 *
 * A channel is named by two integers: (a, b) for the directed link a -> b,
 * (-1, p) for processor p's injection channel and (-2, p) for its
 * ejection channel. A hash table interns each name on first sight, with
 * the engine's default bandwidth, alpha and buffer capacity (the NIC
 * bandwidth, zero alpha and no buffer limit for NIC channels) unless an
 * override named it first. Per-channel state is an array of channel
 * records; each channel's FIFO is an index-linked list over one node pool;
 * routes are an int table of channel ids, grouped into route sets (one
 * route under dimension-ordered routing, the minimal candidates under
 * adaptive routing).
 *
 * Bit-identity contract: every floating-point expression mirrors
 * repro/netsim/simulator.py (_head_arrival, _start_transmission,
 * _link_free, _pick_adaptive_route, _on_overflow, _deliver and
 * MessageStats.record) and repro/netsim/appsim.py term for term, and
 * grid_link_loads adds its terms in _grid_link_loads's order; the build
 * uses -ffp-contract=off. tests/netsim/test_des_digest.py replays 16
 * pinned configurations under both bodies.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

enum { EV_PY, EV_INJECT, EV_HEAD, EV_FREE, EV_DELIVER, EV_COMPUTE };
enum { RC_STOP, RC_PY, RC_DELIVER, RC_OVERFLOW, RC_NOMEM, RC_TIME };
/* io[] slots shared with the Python wrapper: outputs (the overflow
 * channel's name is IO_CHX, IO_CHY), then the run's inputs (the event
 * limit, left decremented; whether a deadline is set), then the published
 * buffers, each a count and an address, then the message id counter, the
 * application messages in flight and the deliveries recorded. Then the
 * counts: retransmits made here (each after a buffer drop), transmission
 * starts, enqueues, saturation crossings, an application's sends, local
 * sends and deliveries, each since the wrapper last took it, and the
 * deepest FIFO backlog so far. */
enum { IO_PENDING, IO_PROCESSED, IO_CHX, IO_CHY, IO_HOPS, IO_USED,
       IO_LIMIT, IO_UNTIL, IO_NCHANS, IO_CHANS, IO_NROUTES, IO_ROUTES,
       IO_NOPS, IO_OPS, IO_NMSG, IO_INFLIGHT, IO_DELIVERED, IO_RETRANSMITS,
       IO_TRANSMITS, IO_ENQUEUES, IO_SATURATIONS, IO_SENDS, IO_LOCAL_SENDS,
       IO_APP_DELIVERED, IO_MAX_DEPTH, IO_SIZE };
/* dio[] slots: the clock, the run's deadline, the delivered bytes and
 * hop-bytes, and the non-finite time of the last RC_TIME. */
enum { DIO_NOW, DIO_DEADLINE, DIO_BYTES, DIO_HOP_BYTES, DIO_LATE, DIO_SIZE };
/* Push kinds in the ops buffer; each op is 6 doubles (kind, a, b, c, d,
 * t). */
enum { OP_PY, OP_SEND, OP_INJECT };

/* An event record, one node of its instant's FIFO: `key` packs hop << 4
 * | neg << 3 | kind, neg marking a record pushed at -0.0 (its instant is
 * +0.0's), and `next` links the FIFO or the free list. */
typedef struct {
    uint64_t key;
    i64 id, next;
} ev_t;

/* An instant: a pending event time, its FIFO of records, oldest first
 * (`head` links the free list when the instant is unused), and its slot in
 * the time map. */
typedef struct {
    double t;
    i64 head, tail, slot;
} inst_t;

/* A time map slot: a time's bits and its instant (-1: empty slot). */
typedef struct {
    uint64_t bits;
    i64 at;
} tslot_t;

/* A time heap entry: an instant and a copy of its time. */
typedef struct {
    double t;
    i64 at;
} tnode_t;

typedef struct {
    double busy, bytes, buffered, capacity, bandwidth, alpha;
    i64 x, y, current, max_queue, qhead, qtail, qlen;
    uint8_t saturated, created;
} chan_t;

/* `task` is the receiving task (a global task id) of an application
 * message; a message Python sent has task < 0. */
typedef struct {
    double size, sent;
    i64 set, route, task;
    int32_t hops, attempts, src, dst, iter;
    uint8_t done;
} msg_t;

typedef struct {
    i64 msg, hop, next;
} qnode_t;

typedef struct {
    i64 off, len;
} span_t;

/* A registered application: its arrays (kept alive by the wrapper), and
 * the route set of each CSR entry (-1: same processor). Task t of the
 * application is global task off + t. */
typedef struct {
    i64 n, off, iterations;
    const i64 *indptr, *indices, *assign;
    const double *sizes, *compute;
    i64 *sets, *remaining;
    double *finish;
} app_t;

/* One task's progress: its iteration, whether its compute step is done,
 * and its arrival counts for iterations of even and odd parity. */
typedef struct {
    i64 iter, arrived[2], app;
    uint8_t computed;
} task_t;

typedef struct {
    /* the event queue: records, instants, the heap of instants by time,
     * the map from a time's bits to its instant (open addressing, at most
     * half full) and the instant pushed to last (-1: none) */
    ev_t *ev;
    i64 evcap, evfree;
    inst_t *inst;
    i64 icap, ifree;
    tnode_t *th;
    i64 thn, thcap;
    tslot_t *tmap;
    i64 tmcap, tmshift, tmused, mru;
    double now;
    chan_t *ch;
    i64 *order; /* used channels, in first-use order */
    i64 nch, chcap, used;
    /* channel names -> ids: open addressing, hkeys 0 = empty */
    uint64_t *hkeys;
    i64 *hvals, tcap;
    double bandwidth, alpha, capacity, nic_bandwidth;
    qnode_t *pool;
    i64 pcap, pfree;
    /* route r is rch[routes[r].off ..][.. routes[r].len]; route set s is
     * routes sets[s].off .. sets[s].off + sets[s].len - 1 */
    i64 *rch;
    span_t *routes, *sets;
    i64 nrch, rchcap, nr, rcap, ns, scap;
    msg_t *msg;
    i64 mcap;
    /* deliveries: (latency, size) pairs in delivery order */
    double *rec;
    i64 reccap;
    app_t *apps;
    i64 napps, acap;
    task_t *tasks;
    i64 ntasks, tkcap;
    /* retransmit knobs; max_retries < 0: every overflow goes to Python */
    double local, retry_delay, retry_backoff;
    i64 max_retries, nprocs;
    i64 nic, sat_depth;
    i64 *io;
    double *dio;
} des_t;

/* Grow *arr (capacity *cap, elements of `size` bytes) to hold `need`,
 * doubling from 16. */
static int reserve(void **arr, i64 *cap, i64 need, size_t size)
{
    if (need <= *cap)
        return 0;
    i64 n = *cap ? *cap : 16;
    while (n < need)
        n *= 2;
    void *p = realloc(*arr, (size_t)n * size);
    if (!p)
        return -1;
    *arr = p;
    *cap = n;
    return 0;
}

/* The bits of t (push folds -0.0 into +0.0 first). */
static inline uint64_t time_bits(double t)
{
    uint64_t bits;
    memcpy(&bits, &t, sizeof bits);
    return bits;
}

static inline uint64_t time_home(const des_t *d, uint64_t bits)
{
    return bits * 0x9E3779B97F4A7C15ull >> d->tmshift;
}

/* The map slot of `bits`: its entry, or the empty slot where it goes. */
static inline i64 time_slot(const des_t *d, uint64_t bits)
{
    uint64_t mask = (uint64_t)d->tmcap - 1, i = time_home(d, bits);
    while (d->tmap[i].at >= 0 && d->tmap[i].bits != bits)
        i = (i + 1) & mask;
    return (i64)i;
}

/* Double the time map, keeping it at most half full. */
static int time_rehash(des_t *d)
{
    tslot_t *old = d->tmap;
    i64 n = d->tmcap, cap = n ? 2 * n : 64;
    tslot_t *map = malloc((size_t)cap * sizeof(tslot_t));
    if (!map)
        return -1;
    for (i64 k = 0; k < cap; k++)
        map[k].at = -1;
    d->tmap = map;
    d->tmcap = cap;
    for (d->tmshift = 64; cap > 1; cap >>= 1)
        d->tmshift--;
    for (i64 k = 0; k < n; k++) {
        if (old[k].at >= 0) {
            i64 i = time_slot(d, old[k].bits);
            map[i] = old[k];
            d->inst[old[k].at].slot = i;
        }
    }
    free(old);
    return 0;
}

/* The instant at time t (already folded), made and queued if new; -1 when
 * out of memory. */
static i64 instant_of(des_t *d, double t)
{
    uint64_t bits = time_bits(t);
    i64 slot = -1;
    if (d->tmcap) {
        slot = time_slot(d, bits);
        if (d->tmap[slot].at >= 0)
            return d->tmap[slot].at;
    }
    if (d->ifree < 0) {
        i64 old = d->icap;
        if (reserve((void **)&d->inst, &d->icap, old + 1, sizeof(inst_t)))
            return -1;
        for (i64 k = old; k < d->icap; k++)
            d->inst[k].head = k + 1 < d->icap ? k + 1 : -1;
        d->ifree = old;
    }
    if (reserve((void **)&d->th, &d->thcap, d->thn + 1, sizeof(tnode_t)))
        return -1;
    if (2 * (d->tmused + 1) > d->tmcap) {
        if (time_rehash(d))
            return -1;
        slot = time_slot(d, bits);
    }
    i64 at = d->ifree;
    d->ifree = d->inst[at].head;
    d->inst[at] = (inst_t){t, -1, -1, slot};
    d->tmap[slot] = (tslot_t){bits, at};
    d->tmused++;
    i64 i = d->thn++;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (!(t < d->th[parent].t))
            break;
        d->th[i] = d->th[parent];
        i = parent;
    }
    d->th[i] = (tnode_t){t, at};
    return at;
}

/* Retire the earliest instant, which is empty: off the time heap and out
 * of the map (backward-shift deletion), onto the free list. */
static void drop_instant(des_t *d)
{
    i64 at = d->th[0].at;
    tnode_t last = d->th[--d->thn];
    i64 i = 0, n = d->thn;
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && d->th[child + 1].t < d->th[child].t)
            child++;
        if (!(d->th[child].t < last.t))
            break;
        d->th[i] = d->th[child];
        i = child;
    }
    if (n)
        d->th[i] = last;

    uint64_t mask = (uint64_t)d->tmcap - 1, hole = (uint64_t)d->inst[at].slot;
    for (uint64_t j = (hole + 1) & mask; d->tmap[j].at >= 0;
         j = (j + 1) & mask) {
        uint64_t home = time_home(d, d->tmap[j].bits);
        /* the entry at j stays unless its home is cyclically outside
         * (hole, j] */
        if (hole <= j ? hole < home && home <= j : hole < home || home <= j)
            continue;
        d->tmap[hole] = d->tmap[j];
        d->inst[d->tmap[hole].at].slot = (i64)hole;
        hole = j;
    }
    d->tmap[hole].at = -1;
    d->tmused--;

    d->inst[at].head = d->ifree;
    d->ifree = at;
    if (d->mru == at)
        d->mru = -1;
}

/* Queue record (kind, id, hop) at time t, behind every record already at
 * t: returns 0, RC_TIME for a non-finite t (kept in dio[DIO_LATE]) or
 * RC_NOMEM. */
static int push(des_t *d, double t, int kind, i64 id, i64 hop)
{
    if (!isfinite(t)) {
        d->dio[DIO_LATE] = t;
        return RC_TIME;
    }
    uint64_t key = (uint64_t)hop << 4 | (uint64_t)kind;
    if (t == 0.0) {
        key |= (uint64_t)(signbit(t) != 0) << 3;
        t = 0.0;
    }
    i64 at = d->mru;
    if (at < 0 || d->inst[at].t != t) {
        at = instant_of(d, t);
        if (at < 0)
            return RC_NOMEM;
        d->mru = at;
    }
    if (d->evfree < 0) {
        i64 old = d->evcap;
        if (reserve((void **)&d->ev, &d->evcap, old + 1, sizeof(ev_t)))
            return RC_NOMEM;
        for (i64 k = old; k < d->evcap; k++)
            d->ev[k].next = k + 1 < d->evcap ? k + 1 : -1;
        d->evfree = old;
    }
    i64 node = d->evfree;
    d->evfree = d->ev[node].next;
    d->ev[node] = (ev_t){key, id, -1};
    inst_t *in = &d->inst[at];
    if (in->tail >= 0)
        d->ev[in->tail].next = node;
    else
        in->head = node;
    in->tail = node;
    d->io[IO_PENDING]++;
    return 0;
}

/* Unlink the oldest record of the earliest instant, and set the clock to
 * its time. */
static ev_t pop(des_t *d)
{
    i64 at = d->th[0].at;
    inst_t *in = &d->inst[at];
    i64 node = in->head;
    ev_t ev = d->ev[node];
    d->now = ev.key & 8 ? -0.0 : in->t;
    in->head = ev.next;
    d->ev[node].next = d->evfree;
    d->evfree = node;
    d->io[IO_PENDING]--;
    if (in->head < 0)
        drop_instant(d);
    return ev;
}

/* A new engine sharing io[] and dio[] (zeroed here) with the caller, for
 * a machine of `nprocs` processors. */
des_t *des_new(i64 nic, i64 sat_depth, i64 *io, double *dio, double bandwidth,
               double alpha, double capacity, double nic_bandwidth,
               i64 nprocs, double local, i64 max_retries, double retry_delay,
               double retry_backoff)
{
    des_t *d = calloc(1, sizeof(des_t));
    if (!d)
        return NULL;
    d->bandwidth = bandwidth;
    d->alpha = alpha;
    d->capacity = capacity;
    d->nic_bandwidth = nic_bandwidth;
    d->nprocs = nprocs;
    d->local = local;
    d->max_retries = max_retries;
    d->retry_delay = retry_delay;
    d->retry_backoff = retry_backoff;
    d->nic = nic;
    d->sat_depth = sat_depth;
    d->io = io;
    d->dio = dio;
    d->pfree = d->evfree = d->ifree = d->mru = -1;
    memset(io, 0, IO_SIZE * sizeof(i64));
    memset(dio, 0, DIO_SIZE * sizeof(double));
    return d;
}

void des_free(des_t *d)
{
    if (!d)
        return;
    for (i64 a = 0; a < d->napps; a++)
        free(d->apps[a].sets);
    free(d->apps);
    free(d->tasks);
    free(d->rec);
    free(d->ev);
    free(d->inst);
    free(d->th);
    free(d->tmap);
    free(d->ch);
    free(d->order);
    free(d->pool);
    free(d->rch);
    free(d->routes);
    free(d->sets);
    free(d->msg);
    free(d->hkeys);
    free(d->hvals);
    free(d);
}

static inline uint64_t channel_key(i64 x, i64 y)
{
    return ((uint64_t)(x + 3) << 32 | (uint64_t)(uint32_t)y);
}

static inline i64 slot_of(const des_t *d, uint64_t key)
{
    uint64_t mask = (uint64_t)d->tcap - 1;
    uint64_t i = (key * 0x9E3779B97F4A7C15ull >> 17) & mask;
    while (d->hkeys[i] && d->hkeys[i] != key)
        i = (i + 1) & mask;
    return (i64)i;
}

/* Double the hash table, keeping it at most half full. */
static int rehash(des_t *d)
{
    uint64_t *keys = d->hkeys;
    i64 *vals = d->hvals, old = d->tcap;
    d->tcap = old ? 2 * old : 64;
    d->hkeys = calloc((size_t)d->tcap, sizeof(uint64_t));
    d->hvals = malloc((size_t)d->tcap * sizeof(i64));
    if (!d->hkeys || !d->hvals) {
        free(d->hkeys);
        free(d->hvals);
        d->hkeys = keys;
        d->hvals = vals;
        d->tcap = old;
        return -1;
    }
    for (i64 k = 0; k < old; k++) {
        if (keys[k]) {
            i64 i = slot_of(d, keys[k]);
            d->hkeys[i] = keys[k];
            d->hvals[i] = vals[k];
        }
    }
    free(keys);
    free(vals);
    return 0;
}

/* The id of channel (x, y), interned on first sight with `bandwidth`
 * (< 0: the default for its kind); -1 when out of memory. */
static i64 channel_of(des_t *d, i64 x, i64 y, double bandwidth)
{
    uint64_t key = channel_key(x, y);
    if (d->tcap) {
        i64 i = slot_of(d, key);
        if (d->hkeys[i])
            return d->hvals[i];
    }
    if (2 * (d->nch + 1) > d->tcap && rehash(d))
        return -1;
    i64 cap = d->chcap;
    if (reserve((void **)&d->ch, &cap, d->nch + 1, sizeof(chan_t))
        || reserve((void **)&d->order, &d->chcap, d->nch + 1, sizeof(i64)))
        return -1;
    int is_nic = x < 0;
    if (bandwidth < 0)
        bandwidth = is_nic ? d->nic_bandwidth : d->bandwidth;
    i64 c = d->nch++;
    d->ch[c] = (chan_t){
        .capacity = is_nic ? -1.0 : d->capacity, .bandwidth = bandwidth,
        .alpha = is_nic ? 0.0 : d->alpha, .x = x, .y = y, .current = -1,
        .qhead = -1, .qtail = -1};
    i64 i = slot_of(d, key);
    d->hkeys[i] = key;
    d->hvals[i] = c;
    return c;
}

/* Open a new, empty route set; add_route fills it. */
static int new_set(des_t *d)
{
    if (reserve((void **)&d->sets, &d->scap, d->ns + 1, sizeof(span_t)))
        return -1;
    d->sets[d->ns++] = (span_t){d->nr, 0};
    return 0;
}

/* Append the route of `len` channels named by `names` (two words each) to
 * the last route set. */
static int add_route(des_t *d, const i64 *names, i64 len)
{
    if (len < 1
        || reserve((void **)&d->routes, &d->rcap, d->nr + 1, sizeof(span_t))
        || reserve((void **)&d->rch, &d->rchcap, d->nrch + len, sizeof(i64)))
        return -1;
    d->routes[d->nr++] = (span_t){d->nrch, len};
    d->sets[d->ns - 1].len++;
    for (i64 h = 0; h < len; h++, names += 2) {
        i64 c = channel_of(d, names[0], names[1], -1.0);
        if (c < 0)
            return -1;
        d->rch[d->nrch++] = c;
    }
    return 0;
}

/* Intern the route set at *w (int64 words: the route count, then per
 * route its length and its channel names, two words each), advancing *w
 * past it. */
static int add_routes(des_t *d, const i64 **w)
{
    const i64 *p = *w;
    i64 nroutes = *p++;
    if (new_set(d))
        return -1;
    for (i64 k = 0; k < nroutes; k++) {
        i64 len = *p++;
        if (add_route(d, p, len))
            return -1;
        p += 2 * len;
    }
    *w = p;
    return 0;
}

/* Register message `m` of `size` bytes from processor src to dst, sent at
 * t on route set `set` (< 0: same processor), for global task `task` (< 0:
 * a Python send) at iteration `iter`, and push its injection at t or, on
 * one processor, its delivery after the local latency. */
static int send_msg(des_t *d, i64 m, double size, i64 set, i64 src, i64 dst,
                    double t, i64 task, i64 iter)
{
    if (reserve((void **)&d->msg, &d->mcap, m + 1, sizeof(msg_t)))
        return RC_NOMEM;
    d->msg[m] = (msg_t){.size = size, .sent = t, .set = set, .route = -1,
                        .task = task, .src = (int32_t)src,
                        .dst = (int32_t)dst, .iter = (int32_t)iter};
    if (set < 0)
        return push(d, t + d->local, EV_DELIVER, m, 0);
    return push(d, t, EV_INJECT, m, 0);
}

/* Apply the buffers Python published: link bandwidth overrides (3
 * doubles each: a, b, bandwidth), route sets (see add_routes) and pushes
 * (a send carries its message, size, route set and src * nprocs + dst; a
 * re-injection its message and attempt count). Returns 0 or push's error
 * code. */
static int apply_published(des_t *d)
{
    i64 *io = d->io;
    const double *ch = (const double *)(intptr_t)io[IO_CHANS];
    for (i64 k = 0; k < io[IO_NCHANS]; k++, ch += 3)
        if (channel_of(d, (i64)ch[0], (i64)ch[1], ch[2]) < 0)
            return RC_NOMEM;
    const i64 *w = (const i64 *)(intptr_t)io[IO_ROUTES];
    const i64 *end = w + io[IO_NROUTES];
    while (w < end)
        if (add_routes(d, &w))
            return RC_NOMEM;
    const double *op = (const double *)(intptr_t)io[IO_OPS];
    for (i64 k = 0; k < io[IO_NOPS]; k++, op += 6) {
        i64 a = (i64)op[1];
        int rc;
        if (op[0] == OP_SEND) {
            i64 pair = (i64)op[4];
            rc = send_msg(d, a, op[2], (i64)op[3], pair / d->nprocs,
                          pair % d->nprocs, op[5], -1, 0);
        } else if (op[0] == OP_INJECT) {
            d->msg[a].attempts = (int32_t)op[2];
            rc = push(d, op[5], EV_INJECT, a, 0);
        } else {
            rc = push(d, op[5], EV_PY, a, 0);
        }
        if (rc)
            return rc;
    }
    io[IO_NCHANS] = io[IO_NROUTES] = io[IO_NOPS] = 0;
    return 0;
}

static int start_transmission(des_t *d, i64 c, i64 m, i64 hop)
{
    chan_t *ch = &d->ch[c];
    double now = d->now, size = d->msg[m].size;
    double occupancy = ch->alpha + size / ch->bandwidth;
    ch->current = m;
    ch->busy += occupancy;
    ch->bytes += size;
    d->io[IO_TRANSMITS]++;
    double done = now + occupancy;
    int rc;
    if (hop == d->routes[d->msg[m].route].len - 1)
        rc = push(d, done, EV_DELIVER, m, 0);
    else
        rc = push(d, now + ch->alpha, EV_HEAD, m, hop + 1);
    return rc ? rc : push(d, done, EV_FREE, c, 0);
}

/* Message m overflowed a full buffer. An application message with
 * retries left is retransmitted here when the retransmit needs no jitter
 * (max_retries >= 0), as _on_overflow does; anything else,
 * or a backoff that overflows a double, goes to Python. */
static int retransmit(des_t *d, i64 m)
{
    msg_t *msg = &d->msg[m];
    if (msg->task < 0 || msg->attempts >= d->max_retries)
        return RC_OVERFLOW;
    double backoff = pow(d->retry_backoff, (double)msg->attempts);
    if (!isfinite(backoff))
        return RC_OVERFLOW;
    double delay = d->retry_delay * backoff;
    msg->attempts++;
    d->io[IO_RETRANSMITS]++;
    return push(d, d->now + delay, EV_INJECT, m, 0);
}

/* The head of `m` reached the input of hop `hop` of its route. Returns an
 * RC_* code that needs Python, RC_STOP when handled here, or an error code
 * (RC_NOMEM, RC_TIME); so do the other event handlers. */
static int head_arrival(des_t *d, i64 m, i64 hop)
{
    msg_t *msg = &d->msg[m];
    i64 c = d->rch[d->routes[msg->route].off + hop];
    chan_t *ch = &d->ch[c];
    if (!ch->created) {
        ch->created = 1;
        d->order[d->used++] = c;
        d->io[IO_USED] = d->used;
    }
    if (ch->current < 0)
        return start_transmission(d, c, m, hop);
    if (ch->capacity >= 0) {
        if (ch->buffered + msg->size > ch->capacity) {
            d->io[IO_CHX] = ch->x;
            d->io[IO_CHY] = ch->y;
            return retransmit(d, m);
        }
        ch->buffered += msg->size;
    }
    if (d->pfree < 0) {
        i64 old = d->pcap;
        if (reserve((void **)&d->pool, &d->pcap, old + 1, sizeof(qnode_t)))
            return RC_NOMEM;
        for (i64 k = old; k < d->pcap; k++)
            d->pool[k].next = k + 1 < d->pcap ? k + 1 : -1;
        d->pfree = old;
    }
    i64 node = d->pfree;
    d->pfree = d->pool[node].next;
    d->pool[node] = (qnode_t){m, hop, -1};
    if (ch->qtail >= 0)
        d->pool[ch->qtail].next = node;
    else
        ch->qhead = node;
    ch->qtail = node;
    i64 depth = ++ch->qlen;
    if (depth > ch->max_queue)
        ch->max_queue = depth;
    if (depth > d->io[IO_MAX_DEPTH])
        d->io[IO_MAX_DEPTH] = depth;
    d->io[IO_ENQUEUES]++;
    if (depth >= d->sat_depth && !ch->saturated) {
        ch->saturated = 1;
        d->io[IO_SATURATIONS]++;
    }
    return RC_STOP;
}

/* Unlink the head of channel ch's FIFO into *m, *hop. */
static void dequeue(des_t *d, chan_t *ch, i64 *m, i64 *hop)
{
    i64 node = ch->qhead;
    *m = d->pool[node].msg;
    *hop = d->pool[node].hop;
    ch->qhead = d->pool[node].next;
    if (ch->qhead < 0)
        ch->qtail = -1;
    ch->qlen--;
    d->pool[node].next = d->pfree;
    d->pfree = node;
}

static int link_free(des_t *d, i64 c)
{
    chan_t *ch = &d->ch[c];
    ch->current = -1;
    if (ch->qlen) {
        i64 m, hop;
        dequeue(d, ch, &m, &hop);
        if (ch->capacity >= 0)
            ch->buffered -= d->msg[m].size;
        return start_transmission(d, c, m, hop);
    }
    ch->saturated = 0;
    return 0;
}

/* The least-congested route of msg's set: queued plus busy over its
 * channels, first minimum. */
static void choose_route(des_t *d, msg_t *msg)
{
    span_t set = d->sets[msg->set];
    i64 best = set.off;
    if (set.len > 1) {
        i64 best_score = -1;
        for (i64 r = set.off; r < set.off + set.len; r++) {
            i64 score = 0;
            for (i64 k = 0; k < d->routes[r].len; k++) {
                const chan_t *ch = &d->ch[d->rch[d->routes[r].off + k]];
                score += ch->qlen + (ch->current >= 0);
            }
            if (best_score < 0 || score < best_score) {
                best = r;
                best_score = score;
            }
        }
    }
    msg->route = best;
    msg->hops = (int32_t)(d->routes[best].len - d->nic);
}

/* Task g's compute step is done, or one more of its arrivals is in: when
 * both its compute and all arrivals of its iteration are, it finishes the
 * iteration and starts the next one's compute (appsim's _maybe_advance). */
static int advance(des_t *d, i64 g)
{
    task_t *t = &d->tasks[g];
    const app_t *a = &d->apps[t->app];
    i64 k = t->iter, i = g - a->off;
    if (!t->computed || t->arrived[k & 1] < a->indptr[i + 1] - a->indptr[i])
        return 0;
    t->arrived[k & 1] = 0;
    if (--a->remaining[k] == 0)
        a->finish[k] = d->now;
    if (k + 1 == a->iterations)
        return 0;
    t->iter = k + 1;
    t->computed = 0;
    return push(d, d->now + a->compute[i], EV_COMPUTE, g, 0);
}

/* Task g's compute step finished: send to its neighbours in CSR order,
 * then try to advance (appsim's _compute_finished). */
static int compute_done(des_t *d, i64 g)
{
    task_t *t = &d->tasks[g];
    const app_t *a = &d->apps[t->app];
    i64 i = g - a->off, src = a->assign[i];
    t->computed = 1;
    for (i64 e = a->indptr[i]; e < a->indptr[i + 1]; e++) {
        i64 nbr = a->indices[e], dst = a->assign[nbr];
        int rc = send_msg(d, d->io[IO_NMSG]++, a->sizes[e], a->sets[e], src,
                          dst, d->now, a->off + nbr, t->iter);
        if (rc)
            return rc;
        d->io[IO_INFLIGHT]++;
        d->io[IO_SENDS]++;
        d->io[IO_LOCAL_SENDS] += src == dst;
    }
    return advance(d, g);
}

/* The tail of message m reached its destination: record it (as
 * MessageStats.record does), then hand a Python send back, or count an
 * application message's arrival. */
static int deliver(des_t *d, i64 m)
{
    msg_t *msg = &d->msg[m];
    i64 k = d->io[IO_DELIVERED];
    if (reserve((void **)&d->rec, &d->reccap, 2 * k + 2, sizeof(double)))
        return RC_NOMEM;
    d->rec[2 * k] = d->now - msg->sent;
    d->rec[2 * k + 1] = msg->size;
    d->io[IO_DELIVERED] = k + 1;
    d->dio[DIO_BYTES] += msg->size;
    d->dio[DIO_HOP_BYTES] += msg->size * (double)msg->hops;
    msg->done = 1;
    if (msg->task < 0)
        return RC_DELIVER;
    d->io[IO_INFLIGHT]--;
    d->io[IO_APP_DELIVERED]++;
    d->tasks[msg->task].arrived[msg->iter & 1]++;
    return advance(d, msg->task);
}

/* Apply the published buffers, then pop and run records until one needs
 * Python (see the file comment). io[IO_LIMIT] < 0 means no event limit.
 * With io[IO_UNTIL], records after dio[DIO_DEADLINE] stay queued and a
 * stop advances the clock to it when nothing is left at or before it. */
i64 des_run(des_t *d)
{
    i64 limit = d->io[IO_LIMIT], fired = 0, rc = apply_published(d), id = 0;
    double deadline = d->dio[DIO_DEADLINE];
    if (rc)
        return rc;
    for (;;) {
        if (!d->thn || (limit >= 0 && fired >= limit)
            || d->th[0].t > deadline) {
            if (d->io[IO_UNTIL] && d->now < deadline
                && (!d->thn || d->th[0].t > deadline)) {
                d->now = deadline;
                d->dio[DIO_NOW] = deadline;
            }
            break;
        }
        ev_t ev = pop(d);
        d->dio[DIO_NOW] = d->now;
        d->io[IO_PROCESSED]++;
        fired++;
        id = ev.id;
        int r = RC_STOP;
        switch (ev.key & 7) {
        case EV_PY:
            r = RC_PY;
            break;
        case EV_DELIVER:
            r = deliver(d, id);
            break;
        case EV_COMPUTE:
            r = compute_done(d, id);
            break;
        case EV_INJECT:
            choose_route(d, &d->msg[id]);
            r = head_arrival(d, id, 0);
            break;
        case EV_HEAD:
            r = head_arrival(d, id, (i64)(ev.key >> 4));
            break;
        case EV_FREE:
            r = link_free(d, id);
            break;
        }
        if (r != RC_STOP) {
            rc = r;
            if (r == RC_DELIVER || r == RC_OVERFLOW)
                d->io[IO_HOPS] = d->msg[id].hops;
            break;
        }
    }
    if (limit >= 0)
        d->io[IO_LIMIT] = limit - fired;
    return rc | id << 3;
}

/* The used channels in first-use order: their names (x, y) and their
 * busy time, bytes, deepest backlog and buffered bytes. */
void des_links(const des_t *d, i64 *xs, i64 *ys, double *busy,
               double *bytes, i64 *max_queue, double *buffered)
{
    for (i64 k = 0; k < d->used; k++) {
        const chan_t *ch = &d->ch[d->order[k]];
        xs[k] = ch->x;
        ys[k] = ch->y;
        busy[k] = ch->busy;
        bytes[k] = ch->bytes;
        max_queue[k] = ch->max_queue;
        buffered[k] = ch->buffered;
    }
}

/* The route set of src -> dst on a grid of `ndim` axes (extents
 * shape[], C-order strides stride[], wraparound links when `wrap`): one
 * route per axis order, in lexicographic order, each walked as
 * GridTopology.route_axis_order walks it and kept unless an earlier order
 * gave the same links; only the first (dimension-ordered) one unless
 * `adaptive`. `path` has room for the longest walk. */
static int grid_set(des_t *d, const i64 *shape, const i64 *stride, i64 ndim,
                    int wrap, int adaptive, i64 src, i64 dst, i64 *path)
{
    i64 order[8];
    for (i64 k = 0; k < ndim; k++)
        order[k] = k;
    if (new_set(d))
        return -1;
    for (;;) {
        i64 node = src, len = 0;
        if (d->nic) {
            path[len++] = -1;
            path[len++] = src;
        }
        for (i64 j = 0; j < ndim; j++) {
            i64 axis = order[j], extent = shape[axis], st = stride[axis];
            i64 here = src / st % extent, there = dst / st % extent;
            i64 forward = ((there - here) % extent + extent) % extent;
            i64 steps = forward, step = 1;
            if (wrap && forward > extent - forward) {
                steps = extent - forward;
                step = -1;
            } else if (!wrap && there <= here) {
                steps = here - there;
                step = -1;
            }
            for (i64 s = 0; s < steps; s++) {
                here += step;
                path[len++] = node;
                if (here == extent) {
                    here = 0;
                    node -= (extent - 1) * st;
                } else if (here < 0) {
                    here = extent - 1;
                    node += (extent - 1) * st;
                } else {
                    node += step * st;
                }
                path[len++] = node;
            }
        }
        if (d->nic) {
            path[len++] = -2;
            path[len++] = dst;
        }
        if (add_route(d, path, len / 2))
            return -1;
        /* Drop the new route if an earlier one has the same channels. */
        span_t set = d->sets[d->ns - 1], mine = d->routes[d->nr - 1];
        for (i64 r = set.off; r < set.off + set.len - 1; r++) {
            span_t other = d->routes[r];
            if (other.len == mine.len
                && !memcmp(d->rch + other.off, d->rch + mine.off,
                           (size_t)mine.len * sizeof(i64))) {
                d->nr--;
                d->nrch -= mine.len;
                d->sets[d->ns - 1].len--;
                break;
            }
        }
        /* The next axis order (std::next_permutation), if any. */
        i64 i = ndim - 2;
        while (i >= 0 && order[i] > order[i + 1])
            i--;
        if (!adaptive || i < 0)
            return 0;
        i64 j = ndim - 1;
        while (order[j] < order[i])
            j--;
        i64 tmp = order[i];
        order[i] = order[j];
        order[j] = tmp;
        for (i64 lo = i + 1, hi = ndim - 1; lo < hi; lo++, hi--) {
            tmp = order[lo];
            order[lo] = order[hi];
            order[hi] = tmp;
        }
    }
}

/* The flow estimator's per-link loads on a grid: the body of
 * repro/netsim/flow.py's _grid_link_loads, in its addition order. Message
 * i goes src[i] -> dst[i] with sizes[i] bytes; axes[k * N + x] is node
 * x's coordinate on axis k (N nodes, C order). Along each axis in order, a
 * message whose coordinate changes covers one run of same-direction links
 * on the line through its current position: the destination's coordinates
 * on the axes before, the source's on the axes after. Per axis and
 * direction (forward, then backward) the run endpoints go into difference
 * arrays over the flat node ids in four passes, each in message order: the
 * start terms, the cut ends, the wrap adds, then the wrap ends. One
 * sequential prefix sum per line turns them into loads, and the loaded
 * links (nonzero message count) are written in flat-position order.
 * Backward link i is (i + 1 -> i) along the axis. out_* need room for
 * 2 * ndim * N links. Returns the number written, or -1 when out of
 * memory. */
i64 grid_link_loads(i64 ndim, const i64 *shape, i64 wrap,
                    const int32_t *axes, i64 m, const i64 *src,
                    const i64 *dst, const double *sizes, i64 *out_src,
                    i64 *out_dst, double *out_bytes, i64 *out_msgs)
{
    i64 nodes = 1;
    for (i64 k = 0; k < ndim; k++)
        nodes *= shape[k];
    /* Per message: its current line position, and on the axis at hand the
     * run's line (axis coordinate zeroed), its first link and its end
     * position (a cut end, or a wrap end past the line's last link). The
     * runs of each kind are listed by message id in three lists, forward
     * runs from the front and backward ones from the back. */
    i64 *line = malloc((size_t)(7 * m + 1) * sizeof(i64));
    i64 *diff_m = malloc((size_t)nodes * sizeof(i64));
    double *diff_b = malloc((size_t)nodes * sizeof(double));
    if (!line || !diff_m || !diff_b) {
        free(line);
        free(diff_m);
        free(diff_b);
        return -1;
    }
    i64 *base = line + m, *first = line + 2 * m, *last = line + 3 * m;
    i64 *runs = line + 4 * m, *cuts = line + 5 * m, *wraps = line + 6 * m;
    memcpy(line, src, (size_t)m * sizeof(i64));

    i64 count = 0, stride = nodes;
    for (i64 a = 0; a < ndim; a++) {
        const i64 s = shape[a];
        const int32_t *col = axes + a * nodes;
        /* list sizes: [forward, backward] */
        i64 nrun[2] = {0, 0}, ncut[2] = {0, 0}, nwrap[2] = {0, 0};
        stride /= s;
        for (i64 i = 0; i < m; i++) {
            const i64 cs = col[src[i]], cd = col[dst[i]];
            base[i] = line[i] - cs * stride;
            line[i] = base[i] + cd * stride;
            if (cs == cd)
                continue;
            i64 len = cd - cs;
            int forward;
            if (wrap) { /* the shorter way around, ties +1 */
                if (len < 0)
                    len += s;
                forward = len <= s - len;
                if (!forward)
                    len = s - len;
            } else {
                forward = len > 0;
                if (!forward)
                    len = -len;
            }
            i64 start = forward ? cs : cs - len;
            if (start < 0)
                start += s;
            const i64 end = start + len, back = !forward;
            first[i] = base[i] + start * stride;
            last[i] = base[i] + (end < s ? end : end - s) * stride;
            const i64 at = back ? m - 1 - nrun[1] : nrun[0];
            runs[at] = i;
            nrun[back]++;
            if (end < s) {
                cuts[back ? m - 1 - ncut[1] : ncut[0]] = i;
                ncut[back]++;
            } else if (end > s) {
                wraps[back ? m - 1 - nwrap[1] : nwrap[0]] = i;
                nwrap[back]++;
            }
        }
        for (int back = 0; back < 2; back++) {
            if (!nrun[back])
                continue;
            /* list position j of this direction, in message order */
            const i64 from = back ? m - 1 : 0, step = back ? -1 : 1;
            memset(diff_b, 0, (size_t)nodes * sizeof(double));
            memset(diff_m, 0, (size_t)nodes * sizeof(i64));
            for (i64 j = 0, k = from; j < nrun[back]; j++, k += step) {
                const i64 i = runs[k];
                diff_b[first[i]] += sizes[i];
                diff_m[first[i]]++;
            }
            for (i64 j = 0, k = from; j < ncut[back]; j++, k += step) {
                const i64 i = cuts[k];
                diff_b[last[i]] += -sizes[i];
                diff_m[last[i]]--;
            }
            for (i64 j = 0, k = from; j < nwrap[back]; j++, k += step) {
                const i64 i = wraps[k];
                diff_b[base[i]] += sizes[i];
                diff_m[base[i]]++;
            }
            for (i64 j = 0, k = from; j < nwrap[back]; j++, k += step) {
                const i64 i = wraps[k];
                diff_b[last[i]] += -sizes[i];
                diff_m[last[i]]--;
            }
            /* Flat order is (outer, t, j) with t the axis coordinate, so
             * position f's prefix f - stride is already summed. */
            for (i64 outer = 0; outer < nodes; outer += s * stride)
                for (i64 t = 0; t < s; t++)
                    for (i64 j = 0; j < stride; j++) {
                        const i64 f = outer + t * stride + j;
                        if (t) {
                            diff_b[f] = diff_b[f - stride] + diff_b[f];
                            diff_m[f] = diff_m[f - stride] + diff_m[f];
                        }
                        if (!diff_m[f])
                            continue;
                        const i64 next = t + 1 < s ? f + stride
                                                   : f - t * stride;
                        out_src[count] = back ? next : f;
                        out_dst[count] = back ? f : next;
                        out_bytes[count] = diff_b[f];
                        out_msgs[count] = diff_m[f];
                        count++;
                    }
        }
    }
    free(line);
    free(diff_m);
    free(diff_b);
    return count;
}

/* Register an application of n tasks and `iterations` rounds (see the
 * file comment): CSR neighbour lists indptr/indices of the edges that
 * carry traffic with per-entry message sizes, the task -> processor
 * assignment and per-task compute times; `sets` gives each CSR entry's
 * route set, or is NULL on a grid machine, described by grid[] = (ndim,
 * wraparound, adaptive, extents...). The engine decrements remaining[k]
 * as tasks finish iteration k and stores in finish[k] when the last one
 * did. Pushes every task's first compute step, in task order. Returns the
 * number of route sets, or -1 when out of memory or given a bad grid. */
i64 des_app(des_t *d, i64 n, i64 iterations, const i64 *indptr,
            const i64 *indices, const double *sizes, const i64 *assign,
            const double *compute, const i64 *sets, const i64 *grid,
            i64 *remaining, double *finish)
{
    if (reserve((void **)&d->apps, &d->acap, d->napps + 1, sizeof(app_t))
        || reserve((void **)&d->tasks, &d->tkcap, d->ntasks + n,
                   sizeof(task_t)))
        return -1;
    i64 nnz = indptr[n];
    i64 *own = malloc((size_t)(nnz ? nnz : 1) * sizeof(i64));
    if (!own)
        return -1;
    app_t *a = &d->apps[d->napps];
    *a = (app_t){n, d->ntasks, iterations, indptr, indices, assign, sizes,
                 compute, own, remaining, finish};
    d->napps++;
    if (sets) {
        memcpy(own, sets, (size_t)nnz * sizeof(i64));
    } else {
        i64 ndim = grid[0], stride[8], room = 4;
        if (ndim < 1 || ndim > 8)
            return -1;
        for (i64 k = ndim - 1, st = 1; k >= 0; k--) {
            stride[k] = st;
            st *= grid[3 + k];
            room += 2 * grid[3 + k];
        }
        i64 *path = malloc((size_t)room * sizeof(i64));
        if (!path)
            return -1;
        for (i64 t = 0; t < n; t++) {
            for (i64 e = indptr[t]; e < indptr[t + 1]; e++) {
                i64 src = assign[t], dst = assign[indices[e]];
                own[e] = -1;
                if (src == dst)
                    continue;
                if (grid_set(d, grid + 3, stride, ndim, (int)grid[1],
                             (int)grid[2], src, dst, path)) {
                    free(path);
                    return -1;
                }
                own[e] = d->ns - 1;
            }
        }
        free(path);
    }
    for (i64 t = 0; t < n; t++) {
        d->tasks[d->ntasks + t] = (task_t){.app = d->napps - 1};
        int rc = push(d, d->now + compute[t], EV_COMPUTE, d->ntasks + t, 0);
        if (rc)
            return -rc;
    }
    d->ntasks += n;
    return d->ns;
}

/* Message `id`'s (src, dst, size, send time, attempts) into out[]; with
 * id < 0, those of the application message in flight that was sent
 * first (lowest id on a tie), whose id is returned (-1: none). */
i64 des_message(const des_t *d, i64 id, double *out)
{
    if (id < 0) {
        for (i64 m = 0; m < d->io[IO_NMSG]; m++) {
            const msg_t *msg = &d->msg[m];
            if (msg->task >= 0 && !msg->done
                && (id < 0 || msg->sent < d->msg[id].sent))
                id = m;
        }
        if (id < 0)
            return -1;
    }
    const msg_t *msg = &d->msg[id];
    out[0] = msg->src;
    out[1] = msg->dst;
    out[2] = msg->size;
    out[3] = msg->sent;
    out[4] = msg->attempts;
    return id;
}

/* Python finally dropped application message `id`. */
void des_drop(des_t *d, i64 id)
{
    if (d->msg[id].task >= 0 && !d->msg[id].done) {
        d->msg[id].done = 1;
        d->io[IO_INFLIGHT]--;
    }
}

/* Deliveries from..io[IO_DELIVERED]-1: their latencies and sizes. */
void des_stats(const des_t *d, i64 from, double *latency, double *size)
{
    for (i64 k = from; k < d->io[IO_DELIVERED]; k++) {
        latency[k - from] = d->rec[2 * k];
        size[k - from] = d->rec[2 * k + 1];
    }
}
