// The lint duplicate-fork cases under wheels_rng fork-collision: the
// repeated literal label in bad() and the 7 / 0x7 salts must fire;
// every other function is a compliant pattern the rule must pass.
struct Rng {
  Rng fork(const char* label);
  Rng fork(int salt);
};

void bad(Rng& rng) {
  Rng a = rng.fork("cell");
  Rng b = rng.fork("cell");
}

void good_distinct_labels(Rng& rng) {
  Rng a = rng.fork("cell");
  Rng b = rng.fork("trip");
}

void good_other_scope(Rng& rng) {
  // Same label as bad(), but a different scope: no finding.
  Rng a = rng.fork("cell");
}

void good_different_parent(Rng& rng, Rng& other) {
  Rng a = rng.fork("cell");
  Rng b = other.fork("cell");
}

void good_dynamic_label(Rng& rng, const char* name) {
  // Computed labels are declared wildcard edges; they never collide
  // with a literal salt.
  Rng a = rng.fork(name);  // wheels-rng: dynamic(caller's label)
  Rng b = rng.fork(name);  // wheels-rng: dynamic(caller's label)
}

void good_chained(Rng& rng) {
  // Chained forks have distinct parents even when a label repeats.
  Rng a = rng.fork("op").fork("ue");
  Rng b = rng.fork("apps").fork("ue");
}

void good_in_string(Rng& rng) {
  // Mentions inside string literals are not calls.
  const char* doc = "call rng.fork(\"cell\") once per scope";
  Rng a = rng.fork("cell");
  (void)doc;
}

void bad_int_salt(Rng& rng) {
  Rng a = rng.fork(7);
  // Different spelling, same numeric salt: must fire like the labels do.
  Rng b = rng.fork(0x7);
}

void good_distinct_salts(Rng& rng) {
  Rng a = rng.fork(1'000);
  Rng b = rng.fork(1'001);
}

void good_label_vs_salt(Rng& rng) {
  // fnv1a("7") != 7: a label spelled like a number is a different salt.
  Rng a = rng.fork("7");
  Rng b = rng.fork(7);
}
