/* des_kernel.c — the per-hop events of repro.netsim's discrete-event
 * simulator, compiled into the same shared object as
 * repro/mapping/refine_kernel.c.
 *
 * The engine owns one binary heap of (time, seq, kind, id, hop) records
 * and runs four kinds of them itself: injections (the adaptive route
 * choice, then the head arrival at hop 0), head arrivals, transmission
 * starts and link frees. A fifth kind belongs to Python: a record that
 * points to a (fn, args) slot the caller keeps. One seq counter numbers
 * every push, so ties break exactly as in repro.netsim.eventqueue.
 *
 * Python does not call in per message. It appends its work to three
 * buffers (link bandwidth overrides, new route sets, and pushes: Python
 * records, sends and re-injections, in program order) and publishes them
 * in io[]; des_run applies them first, then pops records until something
 * needs Python and returns it, encoded as code | id << 3: a Python record
 * (id = slot), a delivery, an overflow at a full buffer, a fault-path hit
 * (a faulted message or a failed channel; id = message), a full telemetry
 * log, or a stop (empty heap, event limit or deadline). The popped record
 * is already counted. Route-set ids are sequential, so Python assigns them
 * itself.
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
 * _link_free, _pick_adaptive_route) term for term, and the build uses
 * -ffp-contract=off. tests/netsim/test_des_digest.py replays 20 pinned
 * configurations under both bodies.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

enum { EV_PY, EV_INJECT, EV_HEAD, EV_FREE, EV_DELIVER };
enum { RC_STOP, RC_PY, RC_DELIVER, RC_FAULT, RC_OVERFLOW, RC_LOGFULL,
       RC_NOMEM };
/* io[] slots shared with the Python wrapper: outputs (the overflow
 * channel's name is IO_CHX, IO_CHY), then the run's inputs (the event
 * limit, left decremented; whether a deadline is set), then the published
 * buffers, each a count and an address. */
enum { IO_LOG, IO_PENDING, IO_PROCESSED, IO_CHX, IO_CHY, IO_HOPS, IO_USED,
       IO_LIMIT, IO_UNTIL, IO_NCHANS, IO_CHANS, IO_NROUTES, IO_ROUTES,
       IO_NOPS, IO_OPS, IO_SIZE };
/* dio[] slots: the clock, and the run's deadline. */
enum { DIO_NOW, DIO_DEADLINE };
/* Push kinds in the ops buffer; each op is 5 doubles (kind, a, b, c, t). */
enum { OP_PY, OP_SEND, OP_INJECT };
/* Telemetry log record kinds; each record is 5 doubles (kind, the
 * channel's name, a, b). */
enum { LOG_TRANSMIT, LOG_ENQUEUE, LOG_SATURATE };

/* A heap record: `key` packs seq << 24 | hop << 3 | kind, so comparing
 * (t, key) orders by (t, seq), seq being unique. */
typedef struct {
    double t;
    uint64_t key;
    i64 id;
} ev_t;

#define HOP_LIMIT (1 << 21)

typedef struct {
    double busy, bytes, buffered, capacity, bandwidth, alpha;
    i64 x, y, current, max_queue, qhead, qtail, qlen;
    uint8_t failed, saturated, created;
} chan_t;

typedef struct {
    double size;
    i64 set, route;
    int32_t hops;
    uint8_t faulted;
} msg_t;

typedef struct {
    i64 msg, hop, next;
} qnode_t;

typedef struct {
    i64 off, len;
} span_t;

typedef struct {
    ev_t *heap;
    i64 hn, hcap, seq;
    double now;
    chan_t *ch;
    i64 *order; /* used channels, in first-use order */
    i64 nch, chcap, used, nfailed;
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
    i64 nic, sat_depth, log_cap;
    double *log;
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

static inline int ev_less(const ev_t *a, const ev_t *b)
{
    return a->t < b->t || (a->t == b->t && a->key < b->key);
}

static int push(des_t *d, double t, int kind, i64 id, i64 hop)
{
    if (reserve((void **)&d->heap, &d->hcap, d->hn + 1, sizeof(ev_t)))
        return -1;
    ev_t ev = {t, (uint64_t)d->seq++ << 24 | (uint64_t)hop << 3 | kind, id};
    i64 i = d->hn++;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (!ev_less(&ev, &d->heap[parent]))
            break;
        d->heap[i] = d->heap[parent];
        i = parent;
    }
    d->heap[i] = ev;
    d->io[IO_PENDING] = d->hn;
    return 0;
}

static ev_t pop(des_t *d)
{
    ev_t top = d->heap[0];
    ev_t last = d->heap[--d->hn];
    i64 i = 0, n = d->hn;
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_less(&d->heap[child + 1], &d->heap[child]))
            child++;
        if (!ev_less(&d->heap[child], &last))
            break;
        d->heap[i] = d->heap[child];
        i = child;
    }
    if (n)
        d->heap[i] = last;
    d->io[IO_PENDING] = d->hn;
    return top;
}

/* A new engine sharing io[] and dio[] (zeroed here) with the caller. */
des_t *des_new(i64 nic, i64 sat_depth, double *log, i64 log_cap, i64 *io,
               double *dio, double bandwidth, double alpha, double capacity,
               double nic_bandwidth)
{
    des_t *d = calloc(1, sizeof(des_t));
    if (!d)
        return NULL;
    d->bandwidth = bandwidth;
    d->alpha = alpha;
    d->capacity = capacity;
    d->nic_bandwidth = nic_bandwidth;
    d->nic = nic;
    d->sat_depth = sat_depth;
    d->log = log;
    d->log_cap = log ? log_cap : 0;
    d->io = io;
    d->dio = dio;
    d->pfree = -1;
    memset(io, 0, IO_SIZE * sizeof(i64));
    dio[DIO_NOW] = 0.0;
    return d;
}

void des_free(des_t *d)
{
    if (!d)
        return;
    free(d->heap);
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

/* Intern the route set at *w (int64 words: the route count, then per
 * route its length and its channel names, two words each), advancing *w
 * past it. */
static int add_routes(des_t *d, const i64 **w)
{
    const i64 *p = *w;
    i64 nroutes = *p++;
    if (reserve((void **)&d->sets, &d->scap, d->ns + 1, sizeof(span_t))
        || reserve((void **)&d->routes, &d->rcap, d->nr + nroutes,
                   sizeof(span_t)))
        return -1;
    d->sets[d->ns++] = (span_t){d->nr, nroutes};
    for (i64 k = 0; k < nroutes; k++) {
        i64 len = *p++;
        if (len < 1 || len >= HOP_LIMIT
            || reserve((void **)&d->rch, &d->rchcap, d->nrch + len,
                       sizeof(i64)))
            return -1;
        d->routes[d->nr++] = (span_t){d->nrch, len};
        for (i64 h = 0; h < len; h++, p += 2) {
            i64 c = channel_of(d, p[0], p[1], -1.0);
            if (c < 0)
                return -1;
            d->rch[d->nrch++] = c;
        }
    }
    *w = p;
    return 0;
}

/* Register message `m` of `size` bytes on route set `set` and push its
 * injection at t; with set < 0 (same processor) push its delivery. */
static int send_msg(des_t *d, i64 m, double size, i64 set, double t)
{
    if (reserve((void **)&d->msg, &d->mcap, m + 1, sizeof(msg_t)))
        return -1;
    d->msg[m] = (msg_t){.size = size, .set = set, .route = -1};
    return push(d, t, set < 0 ? EV_DELIVER : EV_INJECT, m, 0);
}

/* Apply the buffers Python published: link bandwidth overrides (3
 * doubles each: a, b, bandwidth), route sets (see add_routes) and
 * pushes. */
static int apply_published(des_t *d)
{
    i64 *io = d->io;
    const double *ch = (const double *)(intptr_t)io[IO_CHANS];
    for (i64 k = 0; k < io[IO_NCHANS]; k++, ch += 3)
        if (channel_of(d, (i64)ch[0], (i64)ch[1], ch[2]) < 0)
            return -1;
    const i64 *w = (const i64 *)(intptr_t)io[IO_ROUTES];
    const i64 *end = w + io[IO_NROUTES];
    while (w < end)
        if (add_routes(d, &w))
            return -1;
    const double *op = (const double *)(intptr_t)io[IO_OPS];
    for (i64 k = 0; k < io[IO_NOPS]; k++, op += 5) {
        i64 a = (i64)op[1];
        int rc;
        if (op[0] == OP_SEND)
            rc = send_msg(d, a, op[2], (i64)op[3], op[4]);
        else
            rc = push(d, op[4], op[0] == OP_PY ? EV_PY : EV_INJECT, a, 0);
        if (rc)
            return -1;
    }
    io[IO_NCHANS] = io[IO_NROUTES] = io[IO_NOPS] = 0;
    return 0;
}

static inline void log_rec(des_t *d, int kind, const chan_t *ch, double a,
                           double b)
{
    double *r = d->log + 5 * d->io[IO_LOG]++;
    r[0] = kind;
    r[1] = (double)ch->x;
    r[2] = (double)ch->y;
    r[3] = a;
    r[4] = b;
}

static int start_transmission(des_t *d, i64 c, i64 m, i64 hop)
{
    chan_t *ch = &d->ch[c];
    double now = d->now, size = d->msg[m].size;
    double occupancy = ch->alpha + size / ch->bandwidth;
    ch->current = m;
    ch->busy += occupancy;
    ch->bytes += size;
    if (d->log)
        log_rec(d, LOG_TRANSMIT, ch, now, ch->bytes);
    double done = now + occupancy;
    int rc;
    if (hop == d->routes[d->msg[m].route].len - 1)
        rc = push(d, done, EV_DELIVER, m, 0);
    else
        rc = push(d, now + ch->alpha, EV_HEAD, m, hop + 1);
    return rc ? rc : push(d, done, EV_FREE, c, 0);
}

/* The head of `m` reached the input of hop `hop` of its route. Returns an
 * RC_* code that needs Python, RC_STOP when handled here, or -1. */
static int head_arrival(des_t *d, i64 m, i64 hop)
{
    msg_t *msg = &d->msg[m];
    if (msg->faulted) {
        msg->faulted = 0;
        return RC_FAULT;
    }
    i64 c = d->rch[d->routes[msg->route].off + hop];
    chan_t *ch = &d->ch[c];
    if (ch->failed)
        return RC_FAULT;
    if (!ch->created) {
        ch->created = 1;
        d->order[d->used++] = c;
        d->io[IO_USED] = d->used;
    }
    if (ch->current < 0)
        return start_transmission(d, c, m, hop) ? -1 : RC_STOP;
    if (ch->capacity >= 0) {
        if (ch->buffered + msg->size > ch->capacity) {
            d->io[IO_CHX] = ch->x;
            d->io[IO_CHY] = ch->y;
            return RC_OVERFLOW;
        }
        ch->buffered += msg->size;
    }
    if (d->pfree < 0) {
        i64 old = d->pcap;
        if (reserve((void **)&d->pool, &d->pcap, old + 1, sizeof(qnode_t)))
            return -1;
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
    if (d->log) {
        int kind = LOG_ENQUEUE;
        if (depth >= d->sat_depth && !ch->saturated) {
            ch->saturated = 1;
            kind = LOG_SATURATE;
        }
        log_rec(d, kind, ch, (double)depth, d->now);
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
 * channels, first minimum, among the routes with no failed channel when
 * any survives. */
static void choose_route(des_t *d, msg_t *msg)
{
    span_t set = d->sets[msg->set];
    i64 best = set.off;
    if (set.len > 1) {
        int only_healthy = 0;
        for (i64 r = set.off; d->nfailed && r < set.off + set.len; r++) {
            int ok = 1;
            for (i64 k = 0; k < d->routes[r].len && ok; k++)
                ok = !d->ch[d->rch[d->routes[r].off + k]].failed;
            if ((only_healthy = ok))
                break;
        }
        i64 best_score = -1;
        for (i64 r = set.off; r < set.off + set.len; r++) {
            i64 score = 0;
            int ok = 1;
            for (i64 k = 0; k < d->routes[r].len; k++) {
                const chan_t *ch = &d->ch[d->rch[d->routes[r].off + k]];
                ok &= !ch->failed;
                score += ch->qlen + (ch->current >= 0);
            }
            if ((!only_healthy || ok)
                && (best_score < 0 || score < best_score)) {
                best = r;
                best_score = score;
            }
        }
    }
    msg->route = best;
    msg->hops = (int32_t)(d->routes[best].len - d->nic);
}

/* Apply the published buffers, then pop and run records until one needs
 * Python (see the file comment). io[IO_LIMIT] < 0 means no event limit.
 * With io[IO_UNTIL], records after dio[DIO_DEADLINE] stay queued and a
 * stop advances the clock to it when nothing is left at or before it. */
i64 des_run(des_t *d)
{
    i64 limit = d->io[IO_LIMIT], fired = 0, rc = RC_STOP, id = 0;
    double deadline = d->dio[DIO_DEADLINE];
    if (apply_published(d))
        return RC_NOMEM;
    for (;;) {
        if (!d->hn || (limit >= 0 && fired >= limit)
            || d->heap[0].t > deadline) {
            if (d->io[IO_UNTIL] && d->now < deadline
                && (!d->hn || d->heap[0].t > deadline)) {
                d->now = deadline;
                d->dio[DIO_NOW] = deadline;
            }
            break;
        }
        if (d->log && d->io[IO_LOG] >= d->log_cap) {
            rc = RC_LOGFULL;
            break;
        }
        ev_t ev = pop(d);
        d->now = ev.t;
        d->dio[DIO_NOW] = ev.t;
        d->io[IO_PROCESSED]++;
        fired++;
        id = ev.id;
        int r = RC_STOP;
        switch (ev.key & 7) {
        case EV_PY:
            r = RC_PY;
            break;
        case EV_DELIVER:
            r = RC_DELIVER;
            if (d->msg[id].faulted) {
                d->msg[id].faulted = 0;
                r = RC_FAULT;
            }
            break;
        case EV_INJECT:
            choose_route(d, &d->msg[id]);
            r = head_arrival(d, id, 0);
            break;
        case EV_HEAD:
            r = head_arrival(d, id, (i64)(ev.key >> 3 & (HOP_LIMIT - 1)));
            break;
        case EV_FREE:
            r = link_free(d, id) ? -1 : RC_STOP;
            break;
        }
        if (r < 0) {
            rc = RC_NOMEM;
            break;
        }
        if (r != RC_STOP) {
            rc = r;
            if (r != RC_PY)
                d->io[IO_HOPS] = d->msg[id].hops;
            break;
        }
    }
    if (limit >= 0)
        d->io[IO_LIMIT] = limit - fired;
    return rc | id << 3;
}

/* Fail channel (x, y), interning it if new: flag the message it is
 * transmitting as faulted and evict its FIFO into `evicted` (room for
 * every message sent), returning how many were evicted, in FIFO order,
 * or -1 when out of memory. */
i64 des_fail(des_t *d, i64 x, i64 y, i64 *evicted)
{
    i64 c = channel_of(d, x, y, -1.0);
    if (c < 0)
        return -1;
    chan_t *ch = &d->ch[c];
    if (!ch->failed) {
        ch->failed = 1;
        d->nfailed++;
    }
    if (ch->current >= 0)
        d->msg[ch->current].faulted = 1;
    i64 n = 0, hop;
    if (ch->qlen)
        ch->buffered = 0.0;
    while (ch->qlen)
        dequeue(d, ch, &evicted[n++], &hop);
    return n;
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
