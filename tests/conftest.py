"""Settings shared by every test module."""

from hypothesis import settings

# No example database: hypothesis replays a stored failing example before it
# draws new ones, so a local .hypothesis/ directory could make one checkout's
# run differ from another's.
settings.register_profile("parseal", database=None)
settings.load_profile("parseal")
