"""Hypothesis profiles for the test run.

``ci`` prints the reproduction blob of every failing example, so that a
failure seen only in CI can be replayed locally with
``@reproduce_failure``; select it with ``--hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
