"""Seeded input generators for the three workloads.

Every generator takes a random.Random built from the run's --seed, so
the same seed gives the same bytes. The program under test only ever
sees these bytes.
"""

import json

CITIES = ["london", "york", "rome", "oslo", "lima", "kyoto", "perth", "quito"]
TAGS = ["red", "green", "blue", "gold", "teal", "plum", "jade", "rust"]
SKUS = ["sku-a", "sku-b", "sku-c", "sku-d", "sku-e"]


def _date(rng):
    return "%04d-%02d-%02d" % (rng.randrange(2015, 2025), rng.randrange(1, 13), rng.randrange(1, 29))


def _stamp(rng):
    return "%sT%02d:%02d:%02dZ" % (_date(rng), rng.randrange(24), rng.randrange(60), rng.randrange(60))


def _dump(doc):
    return json.dumps(doc, separators=(",", ":"))


def customer(rng, i):
    """A nested record with optional fields, lists, dates and nulls: the
    record the cli_infer and bulk_infer corpora are made of."""
    doc = {
        "id": i,
        "name": "u%d" % i,
        "joined": _date(rng),
        "active": rng.random() < 0.7,
        "score": round(rng.random() * 100, 2),
        "address": {"city": rng.choice(CITIES)},
        "tags": rng.sample(TAGS, rng.randrange(3)),
        "orders": [
            {
                "sku": rng.choice(SKUS),
                "qty": rng.randrange(1, 9),
                "shipped": _date(rng) if rng.random() < 0.8 else None,
            }
            for _ in range(rng.choice((0, 0, 1, 2)))
        ],
    }
    if rng.random() < 0.4:
        doc["manager"] = None if rng.random() < 0.3 else {"name": "boss%d" % rng.randrange(90), "level": rng.randrange(1, 6)}
    if rng.random() < 0.3:
        doc["note"] = "note %d" % rng.randrange(1000)
    doc["rating"] = None if rng.random() < 0.2 else rng.randrange(1, 6)
    return doc


def cli_corpus(rng, records):
    """NDJSON corpus for cli_infer: `records` customer records."""
    return ("\n".join(_dump(customer(rng, i)) for i in range(records)) + "\n").encode()


def record_pool(rng, size):
    """Rendered customer lines that bulk bodies are sampled from."""
    return [_dump(customer(rng, i)) for i in range(size)]


def bulk_body(rng, pool, index, target_bytes):
    """One /infer body of about `target_bytes`: a first record that no
    other body has (its id and name carry `index`), then records drawn
    from the pool, so every body is distinct and the cache never hits."""
    first = customer(rng, 10_000_000 + index)
    first["name"] = "bulk%d" % index
    per_line = sum(len(l) for l in pool[:64]) / 64 + 1
    lines = [_dump(first)] + rng.choices(pool, k=int(target_bytes / per_line))
    return ("\n".join(lines) + "\n").encode()


# --- stream_mix ---

# Optional field groups a stream's documents grow into. A stream unlocks
# them one by one (in its own order) as its batches go by, so its shape
# grows for a while and then saturates.
GROUPS = [
    lambda r: {"user": {"name": "u%d" % r.randrange(500), "age": r.randrange(18, 90)}},
    lambda r: {"items": [{"sku": r.choice(SKUS), "n": r.randrange(1, 5)} for _ in range(r.randrange(1, 4))]},
    lambda r: {"price": round(r.random() * 500, 2)},
    lambda r: {"coupon": None if r.random() < 0.5 else "c%d" % r.randrange(100)},
    lambda r: {"geo": {"lat": round(r.random() * 90, 4), "lon": round(r.random() * 180, 4)}},
    lambda r: {"seen": _date(r)},
]
CSV_COLUMNS = ["price", "qty", "seen", "region", "weight", "code"]
KINDS = ["click", "view", "buy", "cart"]


def event(rng, seq, unlocked, share=0.7):
    doc = {"id": seq, "ts": _stamp(rng), "kind": rng.choice(KINDS), "val": round(rng.random() * 10, 3)}
    for g in unlocked:
        if rng.random() < share:
            doc.update(GROUPS[g](rng))
    return doc


def csv_cell(rng, col):
    if col == "price":
        return "%.2f" % (rng.random() * 100)
    if col == "qty":
        return str(rng.randrange(1, 50))
    if col == "seen":
        return _date(rng)
    if col == "region":
        return rng.choice(CITIES)
    if col == "weight":
        return "" if rng.random() < 0.3 else "%.1f" % (rng.random() * 20)
    return "k%d" % rng.randrange(1000)


class Stream:
    """One of the stream_mix streams: its name, format, the batch index at
    which each field group unlocks, and a counter for batches made."""

    def __init__(self, rng, index, fmt):
        self.name = "s%02d" % index
        self.fmt = fmt
        self.order = rng.sample(range(len(GROUPS)), len(GROUPS))
        step = rng.randrange(5, 15)
        self.unlock_at = [step * (k + 1) for k in range(len(GROUPS))]
        self.batches = 0
        self.seq = 0

    def unlocked(self):
        return [g for g, at in zip(self.order, self.unlock_at) if self.batches >= at]

    def batch(self, rng):
        """The stream's next push body (10-100 documents or rows)."""
        n = rng.randrange(10, 101)
        unlocked = self.unlocked()
        self.batches += 1
        if self.fmt == "csv":
            cols = ["id", "ts", "kind"] + [CSV_COLUMNS[g] for g in unlocked]
            rows = [",".join(cols)]
            for _ in range(n):
                self.seq += 1
                rows.append(",".join([str(self.seq), _stamp(rng), rng.choice(KINDS)] + [csv_cell(rng, c) for c in cols[3:]]))
            return ("\n".join(rows) + "\n").encode()
        docs = []
        for _ in range(n):
            self.seq += 1
            docs.append(_dump(event(rng, self.seq, unlocked)))
        return ("\n".join(docs) + "\n").encode()


def query_body(rng, docs):
    """A stream-query body: `docs` event documents, each carrying a few
    of the optional groups."""
    every = list(range(len(GROUPS)))
    return ("\n".join(_dump(event(rng, i, every, share=0.2)) for i in range(docs)) + "\n").encode()


# Stream queries touch only the fields every event carries, so they
# type-check against the stream's shape at any version. Each matches
# few enough documents that no limit cuts its scan short: every query
# reads its whole body, so its cost follows the body size.
QUERIES = [
    "where .val > 9.5 | select .id, .kind",
    'where .kind == "buy" | count',
    "where .id < 40 | select .id, .ts",
    'where .val <= 0.5 and .kind == "cart" | select .id, .val, .ts',
]
PROGRAMS = ["y.Id", "y.Kind", "y.Val"]


def nested_program(base, depth):
    """A client program of some size: `base` under `depth` nested
    conditionals, each comparing and returning `base` itself."""
    prog = base
    for _ in range(depth):
        prog = "if %s = %s then %s else (%s)" % (base, base, base, prog)
    return prog
