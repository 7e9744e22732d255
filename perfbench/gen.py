"""Seeded inputs for every workload: log rows and auditing criteria.

One :class:`Inputs` object, built from the benchmark's ``--seed``, draws
everything the program receives, so the same seed gives the same rows and
the same criteria.  Rows follow the paper's Table 1 schema.  Categorical
columns are dealt from shuffled decks holding each value equally often,
across calls: which rows match ``C3 = 'bank'`` changes with the seed, how
many do not, so the SMC set sizes -- and with them the modexp count of a
query -- stay the same from seed to seed.
"""

from __future__ import annotations

import random

C3_VALUES = ("bank", "salary", "shop")
PROTOCOLS = ("tcp", "udp")
# Dealt as pairs, so every (C3, protocol) combination is equally common.
CATEGORIES = tuple((c3, p) for c3 in C3_VALUES for p in PROTOCOLS)


class Inputs:
    """The single seeded source of rows and criteria."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._next_eid = 0
        self._decks: dict[tuple, list] = {}

    def _deal(self, values: tuple):
        """Next value from a shuffled deck holding each of ``values`` once."""
        deck = self._decks.setdefault(values, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()

    # -- rows --------------------------------------------------------------

    def rows(self, n: int) -> list[dict]:
        rng = self.rng
        out = []
        for _ in range(n):
            c3, protocol = self._deal(CATEGORIES)
            eid = self._next_eid
            self._next_eid += 1
            out.append(
                {
                    "Time": f"2004-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
                    "id": f"u{rng.randrange(16)}",
                    "protocl": protocol,
                    "Tid": f"T{eid:07d}",
                    "C1": rng.randrange(100),
                    "C2": rng.randrange(1000),
                    "C3": c3,
                    "C4": rng.randrange(2),
                    "EID": eid,
                    "C5": rng.randrange(100),
                    "C": rng.randrange(3),
                    "ip": f"10.0.{rng.randrange(4)}.{rng.randrange(8)}",
                }
            )
        return out

    def routing_rows(self, sizes: tuple[int, ...]) -> list[dict]:
        """One burst of rows from another application: routing attributes
        only, burst size dealt from ``sizes``.

        They carry none of the columns any query template selects or
        compares (no C1..C5, protocol ``icmp``, ip ``10.1.*``), so they grow
        the log, bump store epochs and lengthen the integrity ring without
        changing any answer or the SMC work of any query.  Bursts of mixed
        sizes keep the epoch-latency distribution continuous, so its median
        follows the host's speed smoothly rather than jumping between two
        clusters.
        """
        rng = self.rng
        out = []
        for _ in range(self._deal(sizes)):
            eid = self._next_eid
            self._next_eid += 1
            out.append(
                {
                    "Time": f"2004-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
                    "id": f"u{rng.randrange(16)}",
                    "protocl": "icmp",
                    "Tid": f"T{eid:07d}",
                    "EID": eid,
                    "ip": f"10.1.{rng.randrange(4)}.{rng.randrange(8)}",
                }
            )
        return out

    # -- audit-2048 ----------------------------------------------------------

    def audit_mix(self) -> list[tuple]:
        """One round of the audit mix: ``(kind, argument)`` pairs.

        scmp = secure comparison (blind-TTP), ssi = secure set
        intersection; the paper fragment plan puts C1 on P3, C5 and C2
        on P1, C3 on P2 and protocl on P3.
        """
        rng = self.rng
        return [
            ("query", f"C1 > C5 and C3 = '{rng.choice(C3_VALUES)}'"),  # scmp + ssi
            ("query",
             f"C3 = '{rng.choice(C3_VALUES)}' and protocl = '{rng.choice(PROTOCOLS)}'"),  # ssi
            ("query", f"C2 < {rng.randrange(200, 800)} or C5 > {rng.randrange(50, 90)}"),  # local
            ("aggregate", ("sum", "C2", "C1 > C5")),  # scmp
            ("audited",
             f"C3 = '{rng.choice(C3_VALUES)}' and protocl = '{rng.choice(PROTOCOLS)}'"),  # ssi + sign
        ]

    # -- fanout-64 -----------------------------------------------------------

    def fresh_criteria(self) -> list[str]:
        """One criterion per template, constants drawn fresh, shuffled."""
        rng = self.rng
        # Constants stay near the middle of each column's range, so the
        # set sizes an SMC round works on vary little between criteria.
        def c1() -> int:
            return rng.randrange(45, 55)

        def c2() -> int:
            return rng.randrange(450, 550)

        criteria = [
            f"C2 < {c2()}",  # local
            f"C1 > {c1()} and C2 < {c2()}",  # ssi
            f"C3 = '{rng.choice(C3_VALUES)}' and C1 > {c1()}",  # ssi
            f"C1 > C5 and C2 < {c2()}",  # scmp + ssi
            f"C4 = {rng.randrange(2)} and C2 > {c2()}",  # ssi
            f"ip = '10.0.{rng.randrange(4)}.{rng.randrange(8)}' or C1 < {c1()}",  # local
        ]
        rng.shuffle(criteria)
        return criteria

    def fanout_batch(self, previous: list[str], size: int) -> list[str]:
        """``size`` criteria, a quarter of them exact repeats.

        Half the repeats copy a fresh criterion of the same batch (they
        join its in-flight execution), half copy one of the ``previous``
        batch (they can hit a ring's result cache).
        """
        repeats = size // 4
        batch: list[str] = []
        while len(batch) < size - repeats:
            batch.extend(self.fresh_criteria())
        batch = batch[: size - repeats]
        earlier = previous or batch
        batch.extend(
            self.rng.choice(batch if i % 2 == 0 else earlier) for i in range(repeats)
        )
        self.rng.shuffle(batch)
        return batch

    # -- ingest-durable ------------------------------------------------------

    def standing_criteria(self) -> list[str]:
        """Two standing queries, each resolved on one node (P2, P3).

        The seed picks which values they watch, never how selective they
        are: each matches about a tenth of the rows.
        """
        rng = self.rng
        return [
            f"C3 = '{rng.choice(C3_VALUES)}' and C = {rng.randrange(3)}",
            f"C1 > 92 or ip = '10.0.{rng.randrange(4)}.{rng.randrange(8)}'",
        ]

    def adhoc_criterion(self, window: int) -> str:
        """An ad-hoc query resolved on P1 alone: ``window`` consecutive
        events by event id, at a seeded position in the log so far."""
        start = self.rng.randrange(self._next_eid - window + 1)
        return f"EID >= {start} and EID < {start + window}"
