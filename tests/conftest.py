"""Shared hypothesis settings for the property tests.

Property tests run without a per-example deadline: on a shared or loaded
machine an example's wall time swings by a factor of several, and a deadline
would fail tests for the machine's speed rather than for the code. Each test
still sets its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("mbrlkit", deadline=None)
settings.load_profile("mbrlkit")
