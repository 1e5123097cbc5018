/**
 * @file
 * Tests for landscape persistence (save/load round trips).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cmath>
#include <sstream>
#include <string>

#include "src/landscape/io.h"

namespace {

using namespace oscar;

Landscape
makeLandscape()
{
    const GridSpec grid({{-1.5, 0.5, 6}, {0.0, 3.0, 9}});
    NdArray values(grid.shape());
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = std::sin(0.37 * static_cast<double>(i)) * 1e3 +
                    1.0 / 3.0;
    return Landscape(grid, std::move(values));
}

TEST(LandscapeIo, StreamRoundTripIsExact)
{
    const Landscape original = makeLandscape();
    std::stringstream buffer;
    saveLandscape(original, buffer);
    const Landscape loaded = loadLandscape(buffer);

    ASSERT_EQ(loaded.grid().rank(), original.grid().rank());
    for (std::size_t d = 0; d < original.grid().rank(); ++d) {
        EXPECT_DOUBLE_EQ(loaded.grid().axis(d).lo,
                         original.grid().axis(d).lo);
        EXPECT_DOUBLE_EQ(loaded.grid().axis(d).hi,
                         original.grid().axis(d).hi);
        EXPECT_EQ(loaded.grid().axis(d).count,
                  original.grid().axis(d).count);
    }
    ASSERT_EQ(loaded.numPoints(), original.numPoints());
    for (std::size_t i = 0; i < original.numPoints(); ++i)
        EXPECT_DOUBLE_EQ(loaded.value(i), original.value(i));
}

TEST(LandscapeIo, FileRoundTrip)
{
    const std::string path = "/tmp/oscar_test_landscape.txt";
    const Landscape original = makeLandscape();
    saveLandscape(original, path);
    const Landscape loaded = loadLandscape(path);
    EXPECT_EQ(loaded.numPoints(), original.numPoints());
    EXPECT_DOUBLE_EQ(loaded.value(7), original.value(7));
    std::remove(path.c_str());
}

TEST(LandscapeIo, FourDimensionalGrid)
{
    const GridSpec grid(
        {{0.0, 1.0, 3}, {0.0, 1.0, 3}, {0.0, 1.0, 4}, {0.0, 1.0, 4}});
    NdArray values(grid.shape());
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = static_cast<double>(i);
    std::stringstream buffer;
    saveLandscape(Landscape(grid, values), buffer);
    const Landscape loaded = loadLandscape(buffer);
    EXPECT_EQ(loaded.grid().rank(), 4u);
    EXPECT_DOUBLE_EQ(loaded.value(100), 100.0);
}

TEST(LandscapeIo, RejectsMalformedInput)
{
    {
        std::stringstream bad("not-a-landscape 1\n");
        EXPECT_THROW(loadLandscape(bad), std::runtime_error);
    }
    {
        std::stringstream bad("oscar-landscape 2\naxes 2\n");
        EXPECT_THROW(loadLandscape(bad), std::runtime_error);
    }
    {
        // Value count mismatch.
        std::stringstream bad(
            "oscar-landscape 1\naxes 1\naxis 0 1 4\nvalues 3\n1\n2\n3\n");
        EXPECT_THROW(loadLandscape(bad), std::runtime_error);
    }
    {
        // Truncated values.
        std::stringstream bad(
            "oscar-landscape 1\naxes 1\naxis 0 1 2\nvalues 2\n1\n");
        EXPECT_THROW(loadLandscape(bad), std::runtime_error);
    }
    // Non-finite numbers never load: a replayed dataset enters the
    // pipeline without passing through a cost function's check.
    const auto expectMalformed = [](const std::string& text,
                                    const std::string& what) {
        std::stringstream bad(text);
        try {
            loadLandscape(bad);
            ADD_FAILURE() << "loaded: " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()),
                      "loadLandscape: malformed input: " + what)
                << text;
        }
    };
    for (const char* value : {"nan", "-nan", "inf", "-inf", "1e999"}) {
        expectMalformed("oscar-landscape 1\naxes 1\naxis 0 1 2\n"
                        "values 2\n1\n" +
                            std::string(value) + "\n",
                        "value entry");
    }
    expectMalformed("oscar-landscape 1\naxes 1\naxis 0 1e999 2\n"
                    "values 2\n1\n2\n",
                    "axis line");
    // Two axes of 2^32 points: the count would wrap size_t to 0 and
    // match "values 0", so the grid itself must refuse it.
    expectMalformed("oscar-landscape 1\naxes 2\naxis 0 1 4294967296\n"
                    "axis 0 1 4294967296\nvalues 0\n",
                    "GridSpec: point count overflows size_t");
}

TEST(LandscapeIo, MissingFileThrows)
{
    EXPECT_THROW(loadLandscape("/nonexistent/path/l.txt"),
                 std::runtime_error);
}

} // namespace
