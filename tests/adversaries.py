"""Distinguishers that can have no advantage, shared by the long-list tests
and the acceptance gate.  Each takes a certlab.llqsv.ListOracle."""


def constant_accept(oracle) -> bool:
    """Accepts everything; advantage exactly 0."""
    return True


def s_only_parity(oracle) -> bool:
    """Reads only the s side; can have no advantage (uniform marginal)."""
    total = 0
    for i in range(len(oracle)):
        total ^= oracle.read_s(i)
    return bin(total).count("1") % 2 == 0
