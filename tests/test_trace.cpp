/// \file test_trace.cpp
/// \brief Unit tests for workload traces.
#include <gtest/gtest.h>

#include "wl/trace.hpp"

namespace prime::wl {
namespace {

WorkloadTrace make_simple() {
  return WorkloadTrace("t", {FrameDemand{100, FrameKind::kIntra},
                             FrameDemand{200, FrameKind::kPredicted},
                             FrameDemand{300, FrameKind::kBidirectional}});
}

TEST(WorkloadTrace, BasicAccessors) {
  const WorkloadTrace t = make_simple();
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.name(), "t");
  EXPECT_EQ(t.at(1).cycles, 200u);
  EXPECT_THROW((void)t.at(3), std::out_of_range);
}

TEST(WorkloadTrace, Statistics) {
  const WorkloadTrace t = make_simple();
  EXPECT_DOUBLE_EQ(t.mean_cycles(), 200.0);
  EXPECT_EQ(t.peak_cycles(), 300u);
  EXPECT_GT(t.cv(), 0.0);
}

TEST(WorkloadTrace, EmptyTraceDefaults) {
  const WorkloadTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.mean_cycles(), 0.0);
  EXPECT_EQ(t.peak_cycles(), 0u);
}

TEST(WorkloadTrace, ScaledToMean) {
  const WorkloadTrace t = make_simple();
  const WorkloadTrace s = t.scaled_to_mean(1000.0);
  EXPECT_NEAR(s.mean_cycles(), 1000.0, 1.0);
  // Round-to-nearest: no systematic downward drift, so the achieved mean
  // stays within half a cycle of the target (truncation would sit ~0.5 low).
  const WorkloadTrace fine = t.scaled_to_mean(1234.567);
  EXPECT_NEAR(fine.mean_cycles(), 1234.567, 0.5);
  // Relative shape preserved.
  EXPECT_NEAR(static_cast<double>(s.at(2).cycles) /
                  static_cast<double>(s.at(0).cycles),
              3.0, 0.01);
  // Kinds preserved.
  EXPECT_EQ(s.at(0).kind, FrameKind::kIntra);
}

TEST(WorkloadTrace, ScaleOfEmptyIsNoOp) {
  const WorkloadTrace t;
  EXPECT_TRUE(t.scaled_to_mean(100.0).empty());
}

TEST(WorkloadTrace, CsvRoundTrip) {
  const WorkloadTrace t = make_simple();
  const std::string csv = t.to_csv();
  const WorkloadTrace back = WorkloadTrace::from_csv("t2", csv);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.at(i).cycles, t.at(i).cycles);
    EXPECT_EQ(back.at(i).kind, t.at(i).kind);
  }
}

TEST(WorkloadTrace, FromCsvRejectsMissingColumn) {
  EXPECT_THROW(WorkloadTrace::from_csv("x", "a,b\n1,2\n"), std::runtime_error);
}

TEST(WorkloadTrace, FromCsvToleratesWhitespacePadding) {
  // strtoull always skipped leading whitespace, so padded-but-valid archives
  // (hand-edited, external exports) must keep loading under strict parsing.
  const WorkloadTrace t =
      WorkloadTrace::from_csv("x", "frame,cycles,kind\n0, 1234 ,I\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.at(0).cycles, 1234u);
}

TEST(WorkloadTrace, FromCsvRejectsMalformedCyclesCell) {
  // A non-numeric cycles cell must throw (as documented), not silently
  // parse to 0 the way unchecked strtoull would.
  EXPECT_THROW(WorkloadTrace::from_csv("x", "frame,cycles,kind\n0,abc,-\n"),
               std::runtime_error);
  EXPECT_THROW(WorkloadTrace::from_csv("x", "frame,cycles,kind\n0,12x,-\n"),
               std::runtime_error);
  EXPECT_THROW(WorkloadTrace::from_csv("x", "frame,cycles,kind\n0,,-\n"),
               std::runtime_error);
  EXPECT_THROW(WorkloadTrace::from_csv("x", "frame,cycles,kind\n0,-5,-\n"),
               std::runtime_error);
  EXPECT_THROW(
      WorkloadTrace::from_csv(
          "x", "frame,cycles,kind\n0,99999999999999999999999999,-\n"),
      std::runtime_error);
}

TEST(FrameKindTag, AllTags) {
  EXPECT_STREQ(frame_kind_tag(FrameKind::kIntra), "I");
  EXPECT_STREQ(frame_kind_tag(FrameKind::kPredicted), "P");
  EXPECT_STREQ(frame_kind_tag(FrameKind::kBidirectional), "B");
  EXPECT_STREQ(frame_kind_tag(FrameKind::kGeneric), "-");
}

}  // namespace
}  // namespace prime::wl
