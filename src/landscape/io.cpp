#include "src/landscape/io.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace oscar {

namespace {

[[noreturn]] void
malformed(const std::string& what)
{
    throw std::runtime_error("loadLandscape: malformed input: " + what);
}

} // namespace

void
saveLandscape(const Landscape& landscape, std::ostream& out)
{
    out << "oscar-landscape 1\n";
    out << "axes " << landscape.grid().rank() << "\n";
    out << std::setprecision(17);
    for (const GridAxis& axis : landscape.grid().axes())
        out << "axis " << axis.lo << " " << axis.hi << " " << axis.count
            << "\n";
    out << "values " << landscape.numPoints() << "\n";
    for (std::size_t i = 0; i < landscape.numPoints(); ++i)
        out << landscape.value(i) << "\n";
    if (!out)
        throw std::runtime_error("saveLandscape: stream write failed");
}

void
saveLandscape(const Landscape& landscape, const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("saveLandscape: cannot open " + path);
    saveLandscape(landscape, out);
}

Landscape
loadLandscape(std::istream& in)
{
    std::string magic;
    int version = 0;
    if (!(in >> magic >> version) || magic != "oscar-landscape")
        malformed("missing magic header");
    if (version != 1)
        malformed("unsupported version");

    std::string key;
    std::size_t rank = 0;
    if (!(in >> key >> rank) || key != "axes" || rank == 0)
        malformed("axes line");

    std::vector<GridAxis> axes;
    axes.reserve(rank);
    for (std::size_t d = 0; d < rank; ++d) {
        GridAxis axis{};
        if (!(in >> key >> axis.lo >> axis.hi >> axis.count) ||
            key != "axis")
            malformed("axis line");
        axes.push_back(axis);
    }
    // GridSpec rejects an inverted axis or an overflowing point count
    // with its own exception type; in a file that is malformed input.
    const GridSpec grid = [&] {
        try {
            return GridSpec(std::move(axes));
        } catch (const std::invalid_argument& e) {
            malformed(e.what());
        }
    }();

    std::size_t count = 0;
    if (!(in >> key >> count) || key != "values")
        malformed("values line");
    if (count != grid.numPoints())
        malformed("value count does not match grid");

    NdArray values(grid.shape());
    for (std::size_t i = 0; i < count; ++i) {
        if (!(in >> values[i]))
            malformed("value entry");
    }
    return Landscape(grid, std::move(values));
}

Landscape
loadLandscape(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("loadLandscape: cannot open " + path);
    return loadLandscape(in);
}

} // namespace oscar
