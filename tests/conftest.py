"""Shared test settings.

Property tests draw a fixed sequence of examples (derandomize) and keep no
example database, so every run of the suite checks the same cases; the
per-example deadline is off because exact Fraction arithmetic varies in cost.
"""
from hypothesis import settings

settings.register_profile("pdmlag", derandomize=True, deadline=None, database=None)
settings.load_profile("pdmlag")
