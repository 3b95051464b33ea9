from hypothesis import settings

# Derandomized, so every run of the suite draws the same examples; no
# deadline, because a solve's time varies with the host's load.
settings.register_profile("freepoisson", derandomize=True, deadline=None, database=None)
settings.load_profile("freepoisson")
