"""Suite-wide settings."""

from hypothesis import settings

# Every run draws the same examples, so a property fails on every run or on
# none. A derandomized run also keeps no example database, so no failure
# stored by an earlier run is replayed; a failure still prints its example.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
