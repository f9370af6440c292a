// writer-lanes-transitive fixture (user half): calling a non-sanctioned
// helper that writes staged_mutations_ makes this caller a writer — flagged
// at the call site even though this file never names staged_mutations_.
// run_window() is the legal crossing, and the annotated call pins a
// reasoned exception. Pinned by LintInterproc.WriterLanesTransitive*.
struct Engine;

void bad_reset(Engine& engine) {
  engine.drop_staged(3);
}

void good_run(Engine& engine) {
  engine.run_window(3);
}

void excused_reset(Engine& engine) {
  // SPLICER_LINT_ALLOW(writer-lanes-transitive): test-only teardown; the
  // simulation is single-threaded here and no concurrent writer exists.
  engine.drop_staged(4);
}
