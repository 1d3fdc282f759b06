"""Token-based secure electronic transaction protocol.

Library layout:

- ``tokens``: payment tokens, sealed token format, two-layer sealing, mint
- ``trust``: exact-rational merchant scoring and letter grades
- ``messages``: signed protocol messages between the five roles
- ``entities``: the five role state machines and their legality tables
- ``ledger``: the arbiter's hash-chained, append-only event history
- ``simnet``: deterministic discrete-event network with an adversary
- ``scenario``: validated YAML scenarios and world construction
- ``cli``: the ``tset`` command (run, trust-table, dispute)
"""

__version__ = "0.1.0"
