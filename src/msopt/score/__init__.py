"""Score oracles: exact mixture formulas, trainable network, VE sampler."""
