package repro.pipebench

import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.Metrics

/** Output check, determinism digest and scoring of one method's assignment. */
object Check {

  /** What is wrong with an assignment, if anything. It must hold exactly one
    * row per U vertex of the generator's labels (`uIds`, sorted), with
    * distinct ids and every cluster in [0, k).
    */
  def problem(rows: Array[(Long, Int)], uIds: Array[Long], k: Int): Option[String] = {
    val ids = rows.map(_._1).sorted
    if (rows.length != uIds.length)
      Some(s"${rows.length} rows for ${uIds.length} U vertices")
    else if (ids.indices.exists(i => i > 0 && ids(i) == ids(i - 1)))
      Some("duplicate ids")
    else if (!java.util.Arrays.equals(ids, uIds))
      Some("ids differ from the U vertices")
    else rows.find { case (_, c) => c < 0 || c >= k }
      .map { case (id, c) => s"vertex $id has cluster $c outside [0, $k)" }
  }

  /** SHA-256 (first 16 hex digits) of the assignment sorted by id. */
  def digest(rows: Array[(Long, Int)]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    rows.sortBy(_._1).foreach { case (id, c) => md.update(s"$id:$c\n".getBytes("UTF-8")) }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  def collect(assign: DataFrame): Array[(Long, Int)] =
    assign.select(col("id").cast("long"), col("cluster").cast("int")).collect()
      .map(r => (r.getLong(0), r.getInt(1)))

  /** Scores and digest of a valid assignment, or why the run failed. Quality
    * is computed only after the output check passes, so a dropped row cannot
    * inflate Acc/NMI/ARI.
    */
  def score(rows: Array[(Long, Int)], uIds: Array[Long], k: Int)
           (evaluate: => Metrics.Scores): Either[String, (Metrics.Scores, String)] =
    problem(rows, uIds, k) match {
      case Some(why) => Left(why)
      case None => Right((evaluate, digest(rows)))
    }
}
