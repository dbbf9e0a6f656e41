package repro.perfbench

import repro.core.{BiHmm, CompactEvent, EntryStats, Profiles, SsRecModel, UserProfile}
import repro.index.TreeRef
import repro.socialdata.{Interaction, Item}

/** Algorithm-2 maintenance through `SsRecModel.observe`. */
object Observe {

  /** One timed `observe` call; its time in ms, or None if it threw. Traced,
    * the call is split into its layers from outside (see [[attribute]]).
    */
  def call(model: SsRecModel, batch: Seq[Interaction], key: Long, tr: Tracer,
           ledger: Ledger): Option[Double] = {
    val before = if (tr.enabled) model.index.profiles.clone() else null
    val t0 = System.nanoTime()
    val report = ledger.attempt(s"observe(batch $key)")(
      tr.span("index.observe_batch", key)(model.observe(batch)))
    val ns = System.nanoTime() - t0
    report.map { r =>
      val users = batch.iterator.map(_.userId).distinct.size
      ledger.record(r.updatedUsers + r.newUsers == users,
                    s"UpdateReport $r does not cover the $users users of batch $key")
      if (tr.enabled) {
        tr.count("index.users_updated", r.updatedUsers)
        tr.count("index.users_new", r.newUsers)
        tr.count("index.hash_triads_new", r.newHashTriads)
        attribute(model, batch, before, ns, key, tr, ledger)
      }
      ns / 1e6
    }
  }

  /** Split one finished `observe` into layers from outside: off the clock,
    * re-run its pure steps (`Profiles.ingest`, `refreshPredictions`,
    * `entryStats`, and `BiHmm.trainConsumer` for new users) on the profiles
    * as they were before the call, check that the re-run profiles equal the
    * ones `observe` stored and that every tree leaf `observe` left holds the
    * re-run statistics, then time the idempotent `SignatureTree.update` with
    * those statistics. What is not attributed (grouping, z lookup, hash
    * linking, new-user inserts) is `index.observe_other_ms`.
    */
  private def attribute(model: SsRecModel, batch: Seq[Interaction],
                        before: scala.collection.Map[Long, UserProfile], observeNs: Long,
                        key: Long, tr: Tracer, ledger: Ledger): Unit = {
    val cfg = model.cfg
    val idx = model.index
    var ingest, refresh, entry, tree, fresh = 0L
    def clock[T](add: Long => Unit)(body: => T): T = {
      val t0 = System.nanoTime(); val r = body; add(System.nanoTime() - t0); r
    }
    val dirty = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
    var same, leavesRight = true
    // The leaves of user u in its block's trees hold `stats`, as observe left them.
    def leavesHold(u: Long, stats: IndexedSeq[EntryStats]): Boolean =
      idx.blockOf(u).exists(b => stats.indices.forall(c =>
        idx.tree(TreeRef(b, c)).flatMap(_.leafOf(u)).exists(_.stats == stats(c))))
    batch.groupBy(_.userId).toSeq.sortBy(_._1).foreach { case (u, is) =>
      val events = is.sortBy(_.ts).map { i =>
        CompactEvent(i.category, i.producerId, i.entities,
                     model.zOf(Item(i.itemId, i.ts, i.category, i.producerId, i.entities, -1)))
      }
      val after = idx.profiles.get(u)
      before.get(u) match {
        case Some(old) =>
          var w = old.window.size
          events.foreach { _ =>
            if (w < old.windowCap) w += 1 else { tr.count("core.profiles.windows_flushed"); w = 1 }
          }
          val p1 = clock(ingest += _)(events.foldLeft(old)(Profiles.ingest))
          val p2 = clock(refresh += _)(Profiles.refreshPredictions(p1))
          val stats = clock(entry += _)(
            (0 until cfg.nCategories).map(c => Profiles.entryStats(p2, c, cfg.mu, idx.collection)))
          leavesRight &&= leavesHold(u, stats)
          val trees = (0 until cfg.nCategories).map(c => idx.tree(TreeRef(idx.blockOf(u).get, c)).get)
          clock(tree += _)(trees.indices.foreach(c => trees(c).update(u, stats(c))))
          trees.foreach { t =>
            tr.count("index.leaf_updates")
            var n = t.leafOf(u).get.parent
            while (n != null) { tr.count("index.ancestor_recomputes"); dirty.add(n); n = n.parent }
          }
          same &&= after.exists(Checks.sameProfile(p2, _))
        case None =>
          val p = clock(fresh += _)(
            BiHmm.trainConsumer(u, events, cfg.bihmm, cfg.windowCap, cfg.longSeqCap))
          val stats = clock(entry += _)(
            (0 until cfg.nCategories).map(c => Profiles.entryStats(p, c, cfg.mu, idx.collection)))
          leavesRight &&= leavesHold(u, stats)
          same &&= after.exists(Checks.sameProfile(p, _))
      }
    }
    ledger.record(same, s"re-run profiles differ from those observe stored (batch $key)")
    ledger.record(leavesRight, s"tree leaves differ from the re-run entry statistics (batch $key)")
    tr.count("index.distinct_dirty_ancestors", dirty.size)
    tr.count("core.profiles.ingest_ms", ingest / 1e6)
    tr.count("core.profiles.refresh_ms", refresh / 1e6)
    tr.count("core.profiles.entry_stats_ms", entry / 1e6)
    tr.count("index.tree_update_ms", tree / 1e6)
    tr.count("core.bihmm.new_user_ms", fresh / 1e6)
    tr.count("index.observe_other_ms",
             math.max(0L, observeNs - ingest - refresh - entry - tree - fresh) / 1e6)
  }
}

/** The `maintain` workload: interactions through `observe` in fixed-size
  * batches, with no queries.
  */
object Maintain {

  /** Per-batch `observe` times (ms) and sizes. */
  def run(model: SsRecModel, interactions: IndexedSeq[Interaction], batch: Int,
          tr: Tracer, ledger: Ledger): Seq[(Double, Int)] =
    interactions.grouped(batch).zipWithIndex.toSeq.flatMap { case (b, n) =>
      Observe.call(model, b, n.toLong, tr, ledger).map(ms => (ms, b.size))
    }
}
