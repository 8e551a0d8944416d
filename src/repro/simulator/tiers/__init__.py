"""The three tiers of the simulated service."""
