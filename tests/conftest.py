"""Shared test settings: one hypothesis profile for every property test.

Property tests draw the same examples on every run (derandomize) and keep
no example database, so a failure reproduces from the code alone; no
deadline, because exhaustive oracles make single examples slow.  Each
module sets only its own max_examples.
"""

from hypothesis import settings

settings.register_profile("seqcs", deadline=None, derandomize=True, database=None)
settings.load_profile("seqcs")
